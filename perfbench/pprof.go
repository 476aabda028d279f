package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the layers a greylistd CPU profile is split into. Each
// sample goes to gc when any frame is a GC worker or assist; otherwise
// to the innermost frame belonging to a layer's packages (so a syscall
// under net.(*conn).Read is net, and one under the WAL's file write is
// greylist); otherwise to "other" (scheduler, bufio, runtime).
var cpuLayers = []struct {
	name     string
	prefixes []string
}{
	{"trace", []string{"repro/internal/trace."}},
	{"metrics", []string{"repro/internal/metrics."}},
	{"obs", []string{"repro/internal/obs.", "repro/internal/hdr."}},
	{"bypass", []string{"repro/internal/bypass.", "repro/internal/spf.", "repro/internal/dnsresolver.", "repro/internal/dnsbl.", "repro/internal/dnsmsg."}},
	{"greylist", []string{"repro/internal/greylist."}},
	{"smtpserver", []string{"repro/internal/smtpserver.", "repro/internal/smtpproto."}},
	{"net", []string{"net.", "net/"}},
}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time (keys of cpuLayers plus "gc").
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		v := s.value
		total += v
		byLayer[p.classify(s.locs)] += v
	}
	out := map[string]float64{"gc": 0}
	for _, l := range cpuLayers {
		out[l.name] = 0
	}
	if total == 0 {
		return out, nil
	}
	for k, v := range byLayer {
		if _, ok := out[k]; ok {
			out[k] = float64(v) / float64(total)
		}
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	value int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location -> function ids, innermost first
	funcNames map[uint64]int64    // function -> string table index
	strings   []string
}

func (p *profile) frames(loc uint64) []string {
	var out []string
	for _, f := range p.locFuncs[loc] {
		if i := p.funcNames[f]; i >= 0 && int(i) < len(p.strings) {
			out = append(out, p.strings[i])
		}
	}
	return out
}

func (p *profile) classify(locs []uint64) string {
	var names []string
	for _, l := range locs {
		names = append(names, p.frames(l)...)
	}
	for _, n := range names {
		for _, g := range gcFrames {
			if strings.HasPrefix(n, g) {
				return "gc"
			}
		}
	}
	for _, n := range names {
		for _, l := range cpuLayers {
			for _, pre := range l.prefixes {
				if strings.HasPrefix(n, pre) {
					return l.name
				}
			}
		}
	}
	return "other"
}

// parseProfile decodes the fields of profile.proto the shares need:
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	var sampleTypes int
	err := walkFields(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			sampleTypes++
		case 2:
			var s profSample
			var vals []int64
			err := walkFields(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, sb)
				case 2:
					for _, x := range appendVarints(nil, w, v, sb) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds]; weigh by time.
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := walkFields(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			name := int64(-1)
			err := walkFields(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sampleTypes == 0 {
		return nil, errors.New("not a pprof profile")
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// walkFields calls fn for each top-level field of a protobuf message:
// varints (wire 0) in v, length-delimited fields (wire 2) in sub.
func walkFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("unsupported protobuf wire type")
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
