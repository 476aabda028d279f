package greylist

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// snapshot is the gob form in which older daemons saved a Greylister's
// dynamic state. Load still reads it; nothing writes it any more (Save
// writes the checkpoint body described in wal.go). The static whitelist
// is configuration, not state, and was never serialized. Version 2
// added the Earned table; gob decodes version-1 streams into the same
// struct (Earned stays empty), so old snapshots load unchanged.
type snapshot struct {
	Version int
	Pending map[string]pendingSnap
	Passed  map[string]passedSnap
	Clients map[string]clientSnap
	Earned  map[string]earnedSnap
	Stats   Stats
}

type pendingSnap struct {
	FirstSeen time.Time
	LastSeen  time.Time
	Attempts  int
}

type passedSnap struct {
	PassedAt   time.Time
	LastUsed   time.Time
	Deliveries int
}

type clientSnap struct {
	Deliveries int
	LastUsed   time.Time
}

type earnedSnap struct {
	GrantedAt  time.Time
	LastUsed   time.Time
	Deliveries int
}

const snapshotVersion = 2

// ckptChunk sizes the buffers checkpoint bodies are framed into: Save
// writes one out each time it fills, and the WAL's barrier keeps them
// in a list until its lock is released.
const ckptChunk = 256 << 10

// Save writes the greylister's dynamic state (pending and passed triplets,
// auto-whitelist and earned-whitelist records, statistics) to w as a
// checkpoint body (see "Checkpoints" in wal.go), so a daemon restart does
// not reopen the greylisting window for in-flight retries.
//
// Save streams straight from the live tables, a buffer at a time, and
// only reads: pending records are immutable under the read lock (every
// mutation happens in checkSlow under the exclusive lock) and the
// mutable fields of the other records are atomics. It therefore holds
// g.mu only as a *reader*, until the last byte is written: checks that
// need the exclusive lock wait that long, and, as with any RWMutex,
// readers arriving after them wait too.
func (g *Greylister) Save(w io.Writer) error {
	start := time.Now()
	g.mu.RLock()
	tail, err := g.frameTablesLocked(make([]byte, 0, ckptChunk), func(b []byte) ([]byte, error) {
		_, err := w.Write(b)
		return b[:0], err
	})
	g.mu.RUnlock()
	if err == nil {
		_, err = w.Write(tail)
	}
	if err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	if inst := g.inst.Load(); inst != nil {
		inst.saveSeconds.ObserveDuration(time.Since(start))
	}
	return nil
}

// ckptEncoder frames the records of a checkpoint body into buf. Before
// a record that would overflow buf's capacity it hands buf to flush and
// continues in the buffer flush returns; once flush fails it frames
// nothing more.
type ckptEncoder struct {
	buf   []byte
	n     uint64 // records framed, for the end record
	flush func([]byte) ([]byte, error)
	err   error
}

// record frames one record. An entry whose key is longer than the u16
// length field can express is left out, as the log leaves out its
// records.
func (e *ckptEncoder) record(op byte, key, payload []byte) {
	if e.err != nil || len(key) > walMaxKeyLen {
		return
	}
	if len(e.buf) > 0 && len(e.buf)+3+len(key)+len(payload)+4 > cap(e.buf) {
		if e.buf, e.err = e.flush(e.buf); e.err != nil {
			return
		}
	}
	e.buf = appendRecord(e.buf, op, key, payload)
	e.n++
}

// frameTablesLocked frames the dynamic state as a checkpoint body into
// buf, handing buf to flush whenever the next record would not fit, and
// returns the unflushed rest. It walks each table's slab in slot order.
// Callers hold g.mu in either mode: the loops only read, and the
// mutable record fields are atomics. Save streams through it under the
// read lock; the WAL's checkpoint barrier frames into memory under the
// exclusive lock.
func (g *Greylister) frameTablesLocked(buf []byte, flush func([]byte) ([]byte, error)) ([]byte, error) {
	le := binary.LittleEndian
	e := ckptEncoder{buf: buf, flush: flush}
	e.buf = append(e.buf, stateMagic...)
	e.buf = le.AppendUint32(e.buf, stateVersion)
	var p [8 * statsFields]byte
	for i, n := range [...]int{g.pending.len(), g.passed.len(), g.clients.len(), g.earned.len()} {
		le.PutUint64(p[8*i:], uint64(n))
	}
	e.record(ckptOpCounts, nil, p[:32])
	stats := g.stats.snapshot()
	for i, f := range stats.fields() {
		le.PutUint64(p[8*i:], *f)
	}
	e.record(ckptOpStats, nil, p[:])
	g.pending.each(func(k []byte, v *pendingRecord) {
		le.PutUint64(p[0:], uint64(v.firstSeen))
		le.PutUint64(p[8:], uint64(v.lastSeen))
		le.PutUint32(p[16:], uint32(v.attempts))
		e.record(walOpPendingUpsert, k, p[:20])
	})
	g.passed.each(func(k []byte, v *passedRecord) {
		le.PutUint64(p[0:], uint64(v.passedAt))
		le.PutUint64(p[8:], uint64(v.lastUsed.Load()))
		le.PutUint64(p[16:], uint64(v.deliveries.Load()))
		e.record(ckptOpPassed, k, p[:24])
	})
	g.clients.each(func(k []byte, v *clientRecord) {
		le.PutUint64(p[0:], uint64(v.lastUsed.Load()))
		le.PutUint64(p[8:], uint64(v.deliveries.Load()))
		e.record(ckptOpClient, k, p[:16])
	})
	g.earned.each(func(k []byte, v *earnedRecord) {
		le.PutUint64(p[0:], uint64(v.grantedAt))
		le.PutUint64(p[8:], uint64(v.lastUsed.Load()))
		le.PutUint64(p[16:], uint64(v.deliveries.Load()))
		e.record(ckptOpEarned, k, p[:24])
	})
	le.PutUint64(p[0:], e.n)
	e.record(ckptOpEnd, nil, p[:8])
	return e.buf, e.err
}

// ckptMinEntry is the smallest entry record a checkpoint can hold (a
// client record with an empty key): the counts record pre-sizes the
// tables for no more entries than the unread input could carry at this
// size each.
const ckptMinEntry = 3 + 16 + 4

// loadState decodes a checkpoint body from br into fresh tables and
// swaps them in. avail is how many bytes br's source held when Load
// began, or -1 if it could not tell. A checkpoint is written
// atomically, so unlike the log's tail any damage is an error: a record
// cut short or failing its checksum, an op a checkpoint does not carry,
// a counts record out of place, an end record missing or miscounting,
// or bytes after it. The engine's tables are untouched on error.
//
// The counts record sizes every table's index, so decoding an entry
// inserts into storage that only ever grows a chunk at a time.
func (g *Greylister) loadState(br *bufio.Reader, avail int64) error {
	le := binary.LittleEndian
	var hdr [stateHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("greylist: load: state header: %w", err)
	}
	if v := le.Uint32(hdr[8:]); v != stateVersion {
		return fmt.Errorf("greylist: load: unsupported state version %d", v)
	}
	var (
		t     = g.newTables()
		stats Stats
	)
	rr := recordReader{br: br, size: ckptPayloadSize}
	for n := uint64(0); ; n++ {
		op, key, p, err := rr.next()
		if err == io.EOF {
			return errors.New("greylist: load: state ends without its end record")
		}
		if err != nil {
			return fmt.Errorf("greylist: load: state record %d: %w", n, err)
		}
		if (n == 0) != (op == ckptOpCounts) {
			return fmt.Errorf("greylist: load: state record %d: op %#x out of place", n, op)
		}
		switch op {
		case ckptOpCounts:
			budget := uint64(max(avail, 0)) / ckptMinEntry
			hint := func(i int) int {
				c := min(le.Uint64(p[8*i:]), budget)
				budget -= c
				return int(c)
			}
			t.pending.reserve(hint(0))
			t.passed.reserve(hint(1))
			t.clients.reserve(hint(2))
			t.earned.reserve(hint(3))
		case ckptOpStats:
			for i, f := range stats.fields() {
				*f = le.Uint64(p[8*i:])
			}
		// A key the body holds twice keeps its last record's values.
		case walOpPendingUpsert:
			r, _ := t.pending.put(key)
			r.firstSeen = int64(le.Uint64(p[0:]))
			r.lastSeen = int64(le.Uint64(p[8:]))
			r.attempts = int(le.Uint32(p[16:]))
		case ckptOpPassed:
			r, _ := t.passed.put(key)
			r.passedAt = int64(le.Uint64(p[0:]))
			r.lastUsed.Store(int64(le.Uint64(p[8:])))
			r.deliveries.Store(int64(le.Uint64(p[16:])))
		case ckptOpClient:
			r, _ := t.clients.put(key)
			r.lastUsed.Store(int64(le.Uint64(p[0:])))
			r.deliveries.Store(int64(le.Uint64(p[8:])))
		case ckptOpEarned:
			r, _ := t.earned.put(key)
			r.grantedAt = int64(le.Uint64(p[0:]))
			r.lastUsed.Store(int64(le.Uint64(p[8:])))
			r.deliveries.Store(int64(le.Uint64(p[16:])))
		case ckptOpEnd:
			if got := le.Uint64(p); got != n {
				return fmt.Errorf("greylist: load: end record counts %d records, state holds %d", got, n)
			}
			if _, err := br.ReadByte(); err == nil {
				return errors.New("greylist: load: data after the state's end record")
			} else if err != io.EOF {
				return fmt.Errorf("greylist: load: %w", err)
			}
			g.installTables(t, stats)
			return nil
		}
	}
}

// statsFields is the number of Stats counters.
const statsFields = 18

// fields lists s's counters in declaration order, the order a
// checkpoint's stats record carries them in.
func (s *Stats) fields() [statsFields]*uint64 {
	return [statsFields]*uint64{
		&s.Checks, &s.DeferredNew, &s.DeferredEarly, &s.DeferredExpired,
		&s.PassedRetry, &s.PassedKnown, &s.PassedWhitelist, &s.PassedAutoClient,
		&s.PassedDNSWL, &s.PassedRDNS, &s.PassedEarned, &s.PassedBypassOther,
		&s.SPFRekeyed, &s.EarnedGranted, &s.TripletsRecorded, &s.TripletsWhitelist,
		&s.GCSweeps, &s.GCDropped,
	}
}

// add accumulates o into s; loading a legacy sharded snapshot sums the
// per-shard stats through it.
func (s *Stats) add(o Stats) {
	of := o.fields()
	for i, f := range s.fields() {
		*f += *of[i]
	}
}

// decodeSnapshot reads and validates one gob snapshot. It decodes into
// maps that already exist: gob pre-sizes a nil map by the entry count
// the stream claims, which damaged bytes can make arbitrarily large.
func decodeSnapshot(r io.Reader) (*snapshot, error) {
	snap := snapshot{
		Pending: make(map[string]pendingSnap),
		Passed:  make(map[string]passedSnap),
		Clients: make(map[string]clientSnap),
		Earned:  make(map[string]earnedSnap),
	}
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("greylist: load: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("greylist: load: unsupported snapshot version %d", snap.Version)
	}
	return &snap, nil
}

// decodeLegacyShards reads the "shards N\n" + N gob snapshots format and
// merges the shards into one snapshot. Triplet keys lived in exactly one
// shard, so the pending and passed tables are a union. A client's
// auto-whitelist and earned records accrued in every shard its triplets
// hashed to: deliveries sum and the newest use wins, and an earned grant
// keeps its earliest grant time. Stats sum.
func decodeLegacyShards(br *bufio.Reader) (*snapshot, error) {
	var n int
	if _, err := fmt.Fscanf(br, "shards %d\n", &n); err != nil {
		return nil, fmt.Errorf("greylist: load sharded: %w", err)
	}
	if n < 1 {
		return nil, fmt.Errorf("greylist: load sharded: invalid shard count %d", n)
	}
	merged := &snapshot{
		Version: snapshotVersion,
		Pending: make(map[string]pendingSnap),
		Passed:  make(map[string]passedSnap),
		Clients: make(map[string]clientSnap),
		Earned:  make(map[string]earnedSnap),
	}
	for i := 0; i < n; i++ {
		snap, err := decodeSnapshot(br)
		if err != nil {
			return nil, fmt.Errorf("greylist: load sharded: shard %d: %w", i, err)
		}
		maps.Copy(merged.Pending, snap.Pending)
		maps.Copy(merged.Passed, snap.Passed)
		for k, v := range snap.Clients {
			c := merged.Clients[k]
			c.Deliveries += v.Deliveries
			if v.LastUsed.After(c.LastUsed) {
				c.LastUsed = v.LastUsed
			}
			merged.Clients[k] = c
		}
		for k, v := range snap.Earned {
			e, ok := merged.Earned[k]
			if !ok || (!v.GrantedAt.IsZero() && v.GrantedAt.Before(e.GrantedAt)) {
				e.GrantedAt = v.GrantedAt
			}
			e.Deliveries += v.Deliveries
			if v.LastUsed.After(e.LastUsed) {
				e.LastUsed = v.LastUsed
			}
			merged.Earned[k] = e
		}
		merged.Stats.add(snap.Stats)
	}
	return merged, nil
}

// restoreSnapshot replaces the engine's dynamic state with the decoded
// snapshot's.
func (g *Greylister) restoreSnapshot(snap *snapshot) {
	t := g.newTables()
	t.pending.reserve(len(snap.Pending))
	for k, v := range snap.Pending {
		r, _ := t.pending.put([]byte(k))
		r.firstSeen, r.lastSeen, r.attempts = v.FirstSeen.UnixNano(), v.LastSeen.UnixNano(), v.Attempts
	}
	t.passed.reserve(len(snap.Passed))
	for k, v := range snap.Passed {
		r, _ := t.passed.put([]byte(k))
		r.passedAt = v.PassedAt.UnixNano()
		r.lastUsed.Store(v.LastUsed.UnixNano())
		r.deliveries.Store(int64(v.Deliveries))
	}
	t.clients.reserve(len(snap.Clients))
	for k, v := range snap.Clients {
		r, _ := t.clients.put([]byte(k))
		r.deliveries.Store(int64(v.Deliveries))
		r.lastUsed.Store(v.LastUsed.UnixNano())
	}
	t.earned.reserve(len(snap.Earned))
	for k, v := range snap.Earned {
		r, _ := t.earned.put([]byte(k))
		r.grantedAt = v.GrantedAt.UnixNano()
		r.lastUsed.Store(v.LastUsed.UnixNano())
		r.deliveries.Store(int64(v.Deliveries))
	}
	g.installTables(t, snap.Stats)
}

// installTables swaps freshly decoded tables and counters in under the
// exclusive lock.
func (g *Greylister) installTables(t tables, stats Stats) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tables = t
	g.stats.restore(stats)
}

// legacyShardsHeader starts the state that greylistd -shards N (a flag
// since removed) wrote: "shards N\n", then N gob snapshots.
const legacyShardsHeader = "shards "

// Load replaces the greylister's dynamic state with a checkpoint body
// written by Save, or with the gob snapshot an older daemon saved, or
// with the state a -shards N daemon wrote (see decodeLegacyShards). The
// policy and whitelist are untouched, and so is all state when Load
// fails.
func (g *Greylister) Load(r io.Reader) error {
	start := time.Now()
	avail := unread(r)
	// One buffer for the whole stream: gob.NewDecoder wraps a reader
	// that is not an io.ByteReader in its own bufio.Reader, which would
	// read past the end of one legacy shard's stream into the next.
	br := bufio.NewReaderSize(r, 64<<10)
	head, _ := br.Peek(len(stateMagic))
	var err error
	switch {
	case string(head) == stateMagic:
		err = g.loadState(br, avail)
	case strings.HasPrefix(string(head), legacyShardsHeader):
		var snap *snapshot
		if snap, err = decodeLegacyShards(br); err == nil {
			g.restoreSnapshot(snap)
		}
	default:
		var snap *snapshot
		if snap, err = decodeSnapshot(br); err == nil {
			g.restoreSnapshot(snap)
		}
	}
	if err != nil {
		return err
	}
	if inst := g.inst.Load(); inst != nil {
		inst.loadSeconds.ObserveDuration(time.Since(start))
	}
	return nil
}

// unread reports how many bytes r still holds when it can tell (an
// in-memory reader or a regular file), and -1 otherwise.
func unread(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *os.File:
		st, err := v.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return -1
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return st.Size() - off
	}
	return -1
}

// SaveFile atomically writes the state to path (write to a temp file in
// the same directory, fsync, rename) so a crash mid-save never corrupts
// the previous state.
func (g *Greylister) SaveFile(path string) error {
	return atomicSave(path, g.Save)
}

// LoadFile restores state written by SaveFile.
func (g *Greylister) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("greylist: load: %w", err)
	}
	defer f.Close()
	return g.Load(f)
}

func atomicSave(path string, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("greylist: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	// The rename is only durable once the directory entry is: fsync the
	// parent, or a power loss right here can forget the just-renamed
	// file while remembering the unlink of the old one.
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames inside it survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("greylist: save: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	return nil
}
