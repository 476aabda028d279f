package greylist

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"time"
)

// snapshot is the serialized form of a Greylister's dynamic state. The
// static whitelist is configuration, not state, and is not serialized.
// Version 2 added the Earned table; gob decodes version-1 streams into
// the same struct (Earned stays nil), so old snapshots load unchanged.
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

// Save writes the greylister's dynamic state (pending and passed triplets,
// auto-whitelist counters, statistics) to w, so a daemon restart does not
// reopen the greylisting window for in-flight retries.
//
// Save only reads: pending records are immutable under the read lock
// (every mutation happens in checkSlow under the exclusive lock) and the
// mutable fields of passed/client records are atomics. It therefore
// holds g.mu as a *reader*, so a periodic snapshot of a large table no
// longer stalls the known-passed fast path the way the previous
// exclusive-lock implementation did.
func (g *Greylister) Save(w io.Writer) error {
	start := time.Now()
	g.mu.RLock()
	snap := g.snapshotLocked()
	g.mu.RUnlock()

	if err := encodeSnapshot(w, snap); err != nil {
		return err
	}
	if inst := g.inst.Load(); inst != nil {
		inst.saveSeconds.ObserveDuration(time.Since(start))
	}
	return nil
}

// snapshotLocked builds the serializable snapshot of the tables.
// Callers hold g.mu (either mode; the loops only read, and the
// mutable record fields are atomics). Shared by Save and the WAL's
// checkpoint barrier.
func (g *Greylister) snapshotLocked() *snapshot {
	snap := &snapshot{
		Version: snapshotVersion,
		Pending: make(map[string]pendingSnap, len(g.pending)),
		Passed:  make(map[string]passedSnap, len(g.passed)),
		Clients: make(map[string]clientSnap, len(g.clients)),
		Earned:  make(map[string]earnedSnap, len(g.earned)),
		Stats:   g.stats.snapshot(),
	}
	for k, v := range g.pending {
		snap.Pending[k] = pendingSnap{FirstSeen: v.firstSeen, LastSeen: v.lastSeen, Attempts: v.attempts}
	}
	for k, v := range g.passed {
		snap.Passed[k] = passedSnap{
			PassedAt:   v.passedAt,
			LastUsed:   time.Unix(0, v.lastUsed.Load()).UTC(),
			Deliveries: int(v.deliveries.Load()),
		}
	}
	for k, v := range g.clients {
		snap.Clients[k] = clientSnap{
			Deliveries: int(v.deliveries.Load()),
			LastUsed:   time.Unix(0, v.lastUsed.Load()).UTC(),
		}
	}
	for k, v := range g.earned {
		snap.Earned[k] = earnedSnap{
			GrantedAt:  v.grantedAt,
			LastUsed:   time.Unix(0, v.lastUsed.Load()).UTC(),
			Deliveries: int(v.deliveries.Load()),
		}
	}
	return snap
}

// encodeSnapshot writes one snapshot as Save's gob stream.
func encodeSnapshot(w io.Writer, snap *snapshot) error {
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("greylist: save: %w", err)
	}
	return nil
}

// decodeSnapshot reads and validates one serialized snapshot.
func decodeSnapshot(r io.Reader) (*snapshot, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("greylist: load: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("greylist: load: unsupported snapshot version %d", snap.Version)
	}
	return &snap, nil
}

// decodeLegacyShards reads the "shards N\n" + N Save streams format and
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
	pending := make(map[string]*pendingRecord, len(snap.Pending))
	for k, v := range snap.Pending {
		pending[k] = &pendingRecord{firstSeen: v.FirstSeen, lastSeen: v.LastSeen, attempts: v.Attempts}
	}
	passed := make(map[string]*passedRecord, len(snap.Passed))
	for k, v := range snap.Passed {
		p := &passedRecord{passedAt: v.PassedAt}
		p.lastUsed.Store(v.LastUsed.UnixNano())
		p.deliveries.Store(int64(v.Deliveries))
		passed[k] = p
	}
	clients := make(map[string]*clientRecord, len(snap.Clients))
	for k, v := range snap.Clients {
		c := &clientRecord{}
		c.deliveries.Store(int64(v.Deliveries))
		c.lastUsed.Store(v.LastUsed.UnixNano())
		clients[k] = c
	}
	earned := make(map[string]*earnedRecord, len(snap.Earned))
	for k, v := range snap.Earned {
		e := &earnedRecord{grantedAt: v.GrantedAt}
		e.lastUsed.Store(v.LastUsed.UnixNano())
		e.deliveries.Store(int64(v.Deliveries))
		earned[k] = e
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	g.pending = pending
	g.passed = passed
	g.clients = clients
	g.earned = earned
	g.stats.restore(snap.Stats)
}

// legacyShardsHeader starts the state that greylistd -shards N (a flag
// since removed) wrote: "shards N\n", then N Save streams.
const legacyShardsHeader = "shards "

// Load replaces the greylister's dynamic state with a snapshot written by
// Save, or by a -shards N daemon (see decodeLegacyShards). The policy and
// whitelist are untouched.
func (g *Greylister) Load(r io.Reader) error {
	start := time.Now()
	// One buffer for the whole stream: gob.NewDecoder wraps a reader
	// that is not an io.ByteReader in its own bufio.Reader, which would
	// read past the end of one legacy shard's stream into the next.
	br := bufio.NewReader(r)
	var snap *snapshot
	var err error
	if head, _ := br.Peek(len(legacyShardsHeader)); string(head) == legacyShardsHeader {
		snap, err = decodeLegacyShards(br)
	} else {
		snap, err = decodeSnapshot(br)
	}
	if err != nil {
		return err
	}
	g.restoreSnapshot(snap)
	if inst := g.inst.Load(); inst != nil {
		inst.loadSeconds.ObserveDuration(time.Since(start))
	}
	return nil
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
