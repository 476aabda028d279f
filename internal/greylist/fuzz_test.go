package greylist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/simtime"
)

// withFreshCRCs returns a copy of data whose records from offset start
// on carry correct checksums, up to the first op size does not know or
// the first record cut short. A mutated byte almost never keeps a
// record's CRC valid, so without this copy the fuzzers would rarely get
// past the framing to what the records say.
func withFreshCRCs(data []byte, start int, size func(byte) int) []byte {
	out := bytes.Clone(data)
	for off := start; off+3 <= len(out); {
		psize := size(out[off])
		if psize < 0 {
			break
		}
		n := 3 + int(binary.LittleEndian.Uint16(out[off+1:])) + psize + 4
		if off+n > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+n-4:], crc32.ChecksumIEEE(out[off:off+n-4]))
		off += n
	}
	return out
}

// tinyWorkload leaves one entry in each of g's tables. The fuzzers'
// seeds come from it: the fuzzer minimizes every input that finds new
// coverage, and with multi-kilobyte seeds a 10-second run spent nearly
// all its time minimizing.
func tinyWorkload(g *Greylister, clock *simtime.Sim) {
	a := Triplet{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "u@y.example"}
	g.Check(a)
	clock.Advance(301 * time.Second)
	g.Check(a)
	g.Check(a)
	g.Check(Triplet{ClientIP: "192.0.2.2", Sender: "b@x.example", Recipient: "u@y.example"})
	g.GC()
}

// FuzzCheckpointLoad: Load on arbitrary bytes never panics and
// allocates no more than a bound set by the input's size. A failed Load
// leaves the engine's tables and Stats as they were; an accepted input
// re-Saves and re-Loads to the same tables and Stats.
func FuzzCheckpointLoad(f *testing.F) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(legacyStatePolicy(), clock)
	tinyWorkload(g, clock)
	var tiny, empty bytes.Buffer
	if err := g.Save(&tiny); err != nil {
		f.Fatal(err)
	}
	if err := New(DefaultPolicy(), nil).Save(&empty); err != nil {
		f.Fatal(err)
	}
	dup, _ := stateWithDuplicate(f)
	f.Add(tiny.Bytes())
	f.Add(empty.Bytes())
	f.Add(dup)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, data)
		if bytes.HasPrefix(data, []byte(stateMagic)) {
			checkLoad(t, withFreshCRCs(data, stateHeaderSize, ckptPayloadSize))
		}
	})
}

// checkLoad is FuzzCheckpointLoad's property on one input.
func checkLoad(t *testing.T, data []byte) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(legacyStatePolicy(), clock)
	g.Check(Triplet{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "u@y.example"})
	before, stats := dumpTables(g), g.Stats()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := g.Load(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	// The framed reader's fixed cost is its read buffer and one
	// record buffer; every entry then costs a bounded multiple of
	// the at least 23 bytes that framed it. A gob snapshot's
	// reader may also take one 10 MB chunk for a message whose
	// claimed length the input cannot back.
	bound := uint64(512<<10 + 64*len(data))
	if !bytes.HasPrefix(data, []byte(stateMagic)) {
		bound += 16 << 20
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > bound {
		t.Fatalf("Load of %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
	}
	if err != nil {
		if dumpTables(g) != before || g.Stats() != stats {
			t.Fatalf("a failed Load (%v) changed the engine's state", err)
		}
		return
	}

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(legacyStatePolicy(), clock)
	if err := r.Load(&buf); err != nil {
		t.Fatalf("re-Load of an accepted input's Save: %v", err)
	}
	if got, want := dumpTables(r), dumpTables(g); got != want {
		t.Fatalf("tables after re-Save and re-Load\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := r.Stats(), g.Stats(); got != want {
		t.Fatalf("Stats after re-Save and re-Load = %+v, want %+v", got, want)
	}
}

// FuzzWALReplay: the log reader never panics on arbitrary bytes and its
// valid prefix never runs past the input. Replaying just that prefix
// reads all of it, the same records, to the same tables.
func FuzzWALReplay(f *testing.F) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(legacyStatePolicy(), clock)
	dir := f.TempDir()
	log, ck := walPaths(dir)
	w, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, g)
	if err != nil {
		f.Fatal(err)
	}
	tinyWorkload(g, clock)
	if err := w.Sync(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	f.Add(data[walHeaderSize:])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		checkReplay(t, withFreshCRCs(data, 0, walPayloadSize))
	})
}

// checkReplay is FuzzWALReplay's property on one input.
func checkReplay(t *testing.T, data []byte) {
	replay := func(data []byte) (*Greylister, int, int64) {
		w := &WAL{engine: New(legacyStatePolicy(), simtime.NewSim(simtime.Epoch))}
		n, good := w.replay(bytes.NewReader(data), 0)
		return w.engine, n, good
	}
	g, n, good := replay(data)
	if good < 0 || good > int64(len(data)) {
		t.Fatalf("valid prefix %d bytes of a %d-byte input", good, len(data))
	}
	if minRecord := 3 + 4; n*minRecord > int(good) {
		t.Fatalf("%d records in a %d-byte prefix", n, good)
	}
	g2, n2, good2 := replay(data[:good])
	if n2 != n || good2 != good {
		t.Fatalf("replaying the %d-byte valid prefix read %d records, %d bytes; want %d, %d", good, n2, good2, n, good)
	}
	if dumpTables(g2) != dumpTables(g) {
		t.Fatal("replaying the valid prefix alone built different tables")
	}
}
