package greylist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

// walTestPolicy compresses every lifecycle transition into a short
// simulated run: 300 s threshold, 2 000 s retry window, 5 000 s pass
// and auto-whitelist lifetimes, auto-whitelist after 3 deliveries.
func walTestPolicy() Policy {
	return Policy{
		Threshold:             300 * time.Second,
		RetryWindow:           2000 * time.Second,
		PassLifetime:          5000 * time.Second,
		AutoWhitelistAfter:    3,
		AutoWhitelistLifetime: 5000 * time.Second,
	}
}

// walWorkload drives a deterministic traffic mix over a pool of 23
// recurring triplets: first-seen deferrals, immediate too-soon
// retries, accepted retries (the 920 s recurrence gap crosses the
// 300 s threshold), known-passed touches, auto-whitelist promotion and
// hits, batch checks, periodic GC, and — via the occasional 6 000 s
// jump — window expiries and lifetime-based deletions. Identical
// inputs on identical engines produce identical tables.
func walWorkload(e *Greylister, clock *simtime.Sim, start, end int) {
	var out []Verdict
	for i := start; i < end; i++ {
		tr := Triplet{
			ClientIP:  fmt.Sprintf("203.0.113.%d", i%23),
			Sender:    fmt.Sprintf("s%d@x.example", i%23),
			Recipient: fmt.Sprintf("u%d@y.example", i%23),
		}
		if i%11 == 0 {
			out = e.CheckBatch([]Triplet{tr,
				{ClientIP: tr.ClientIP, Sender: tr.Sender, Recipient: "cc@y.example"},
			}, out)
		} else {
			e.Check(tr)
		}
		if i%6 == 0 {
			e.Check(tr) // same instant: too-soon retry (or extra touch)
		}
		clock.Advance(40 * time.Second)
		if i%37 == 0 {
			clock.Advance(6000 * time.Second) // expire passed/pending records
		}
		if i%53 == 0 {
			e.GC()
		}
	}
}

// dumpTables renders the engine's tables as sorted text with
// nanosecond timestamps — a canonical form immune to gob's map-order
// and time-zone encoding variance. Stats are deliberately excluded:
// they are frozen at checkpoint time, not replayed (see DESIGN.md).
func dumpTables(g *Greylister) string {
	g.mu.RLock()
	snap := g.snapshotLocked()
	g.mu.RUnlock()
	var sb strings.Builder
	keys := make([]string, 0, len(snap.Pending))
	for k := range snap.Pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := snap.Pending[k]
		fmt.Fprintf(&sb, "P %q %d %d %d\n", k, v.FirstSeen.UnixNano(), v.LastSeen.UnixNano(), v.Attempts)
	}
	keys = keys[:0]
	for k := range snap.Passed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := snap.Passed[k]
		fmt.Fprintf(&sb, "W %q %d %d %d\n", k, v.PassedAt.UnixNano(), v.LastUsed.UnixNano(), v.Deliveries)
	}
	keys = keys[:0]
	for k := range snap.Clients {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := snap.Clients[k]
		fmt.Fprintf(&sb, "C %q %d %d\n", k, v.Deliveries, v.LastUsed.UnixNano())
	}
	return sb.String()
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// walPaths returns (log, checkpoint) paths inside dir.
func walPaths(dir string) (string, string) {
	return filepath.Join(dir, "wal.log"), filepath.Join(dir, "state.ck")
}

// openTestWAL opens a WAL with fsync off (tests copy files after an
// explicit Sync, so the policy is irrelevant to durability here).
func openTestWAL(t *testing.T, dir string, e *Greylister, compactBytes int64) (*WAL, RecoverInfo) {
	t.Helper()
	log, ck := walPaths(dir)
	w, info, err := OpenWAL(WALConfig{
		Path:           log,
		CheckpointPath: ck,
		Sync:           SyncNone,
		CompactBytes:   compactBytes,
	}, e)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w, info
}

// TestWALReplayEquivalence is the core crash-recovery property: run a
// workload on a WAL-attached engine, "kill -9" it (copy the log and
// checkpoint files, abandoning the live daemon), recover into a fresh
// engine, and require the recovered tables to be byte-equivalent to an
// uninterrupted WAL-free run of the same workload — with compaction
// off and with compaction forced repeatedly mid-run.
func TestWALReplayEquivalence(t *testing.T) {
	engines := []struct {
		name string
		make func(c simtime.Clock) *Greylister
	}{
		{"single", func(c simtime.Clock) *Greylister { return New(walTestPolicy(), c) }},
	}
	compactions := []struct {
		name  string
		bytes int64
	}{
		{"compact-off", -1},
		{"compact-2k", 2048}, // many checkpoint cycles over ~1400 records
	}
	for _, ec := range engines {
		for _, cc := range compactions {
			t.Run(ec.name+"/"+cc.name, func(t *testing.T) {
				clockA := simtime.NewSim(simtime.Epoch)
				a := ec.make(clockA)
				dir := t.TempDir()
				w, _ := openTestWAL(t, dir, a, cc.bytes)
				walWorkload(a, clockA, 0, 600)
				if err := w.Sync(); err != nil {
					t.Fatalf("Sync: %v", err)
				}

				clockB := simtime.NewSim(simtime.Epoch)
				b := ec.make(clockB)
				walWorkload(b, clockB, 0, 600)

				// The crash: the files as they are this instant, the
				// running WAL never told.
				cdir := t.TempDir()
				srcLog, srcCk := walPaths(dir)
				dstLog, dstCk := walPaths(cdir)
				copyFile(t, srcLog, dstLog)
				copyFile(t, srcCk, dstCk)

				r := ec.make(simtime.NewSim(simtime.Epoch))
				w2, info := openTestWAL(t, cdir, r, -1)
				defer w2.Close()
				if info.TornBytes != 0 {
					t.Fatalf("torn bytes after clean sync = %d", info.TornBytes)
				}
				if got, want := dumpTables(r), dumpTables(b); got != want {
					t.Errorf("recovered tables differ from uninterrupted run\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// TestWALTornTailTruncation cuts the log mid-record (a crash mid-append)
// and past the end (garbage), and requires recovery to replay exactly
// the valid prefix, reporting the discarded bytes.
func TestWALTornTailTruncation(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	a := New(walTestPolicy(), clock)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, a, -1)
	walWorkload(a, clock, 0, 250)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	srcLog, srcCk := walPaths(dir)
	logData, err := os.ReadFile(srcLog)
	if err != nil {
		t.Fatal(err)
	}

	// Walk the record framing to find clean cut points.
	bounds := []int64{walHeaderSize}
	for off := walHeaderSize; off < len(logData); {
		psize := walPayloadSize(logData[off])
		if psize < 0 {
			t.Fatalf("invalid op %#x at %d in a log we just wrote", logData[off], off)
		}
		keyLen := int(binary.LittleEndian.Uint16(logData[off+1:]))
		off += 3 + keyLen + psize + 4
		bounds = append(bounds, int64(off))
	}
	if int(bounds[len(bounds)-1]) != len(logData) {
		t.Fatalf("log does not end on a record boundary: %d vs %d", bounds[len(bounds)-1], len(logData))
	}
	if len(bounds) < 10 {
		t.Fatalf("workload produced only %d records", len(bounds)-1)
	}
	cut := bounds[len(bounds)/2]

	recover := func(name string, log []byte) (*Greylister, RecoverInfo) {
		cdir := t.TempDir()
		dstLog, dstCk := walPaths(cdir)
		if err := os.WriteFile(dstLog, log, 0o644); err != nil {
			t.Fatal(err)
		}
		copyFile(t, srcCk, dstCk)
		r := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
		w, info, err := OpenWAL(WALConfig{Path: dstLog, CheckpointPath: dstCk, Sync: SyncNone, CompactBytes: -1}, r)
		if err != nil {
			t.Fatalf("%s: OpenWAL: %v", name, err)
		}
		t.Cleanup(func() { w.Close() })
		return r, info
	}

	clean, cleanInfo := recover("clean-cut", logData[:cut])
	if cleanInfo.TornBytes != 0 {
		t.Fatalf("clean cut reported %d torn bytes", cleanInfo.TornBytes)
	}

	// Torn mid-record: three bytes of the next record made it to disk.
	torn, tornInfo := recover("torn", logData[:cut+3])
	if tornInfo.TornBytes != 3 {
		t.Errorf("torn bytes = %d, want 3", tornInfo.TornBytes)
	}
	if got, want := dumpTables(torn), dumpTables(clean); got != want {
		t.Errorf("torn-tail recovery != clean-prefix recovery\ngot:\n%s\nwant:\n%s", got, want)
	}
	if tornInfo.ReplayedRecords != cleanInfo.ReplayedRecords {
		t.Errorf("replayed %d records, want %d", tornInfo.ReplayedRecords, cleanInfo.ReplayedRecords)
	}

	// Garbage past a valid log: an invalid op byte can never resync.
	garbage := append(append([]byte{}, logData...), 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99)
	full, fullInfo := recover("garbage", garbage)
	if fullInfo.TornBytes != 7 {
		t.Errorf("garbage torn bytes = %d, want 7", fullInfo.TornBytes)
	}
	if got, want := dumpTables(full), dumpTables(a); got != want {
		t.Errorf("garbage-tail recovery != live state\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALCheckpointWatermark manufactures the two compaction crash
// windows the generation/watermark pair exists for: a checkpoint that
// covers a prefix of the same-generation log (crash between checkpoint
// write and log reset — replay must skip the covered prefix, or every
// pre-checkpoint delivery count doubles), and a checkpoint from a
// *newer* generation than the log (replay must skip everything).
func TestWALCheckpointWatermark(t *testing.T) {
	clockA := simtime.NewSim(simtime.Epoch)
	a := New(walTestPolicy(), clockA)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, a, -1)

	walWorkload(a, clockA, 0, 150)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	srcLog, _ := walPaths(dir)
	st, err := os.Stat(srcLog)
	if err != nil {
		t.Fatal(err)
	}
	watermark := st.Size() // log offset the manufactured checkpoint covers

	// Reference engines: state at the watermark, and at the end.
	clockR := simtime.NewSim(simtime.Epoch)
	r1 := New(walTestPolicy(), clockR)
	walWorkload(r1, clockR, 0, 150)
	clockF := simtime.NewSim(simtime.Epoch)
	full := New(walTestPolicy(), clockF)
	walWorkload(full, clockF, 0, 300)

	walWorkload(a, clockA, 150, 300)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	gen := w.Generation()

	build := func(ckGen, ckWatermark uint64) (string, string) {
		cdir := t.TempDir()
		dstLog, dstCk := walPaths(cdir)
		copyFile(t, srcLog, dstLog)
		cw := &WAL{cfg: WALConfig{CheckpointPath: dstCk}}
		if err := cw.writeCheckpoint(ckGen, ckWatermark, r1.Save); err != nil {
			t.Fatal(err)
		}
		return dstLog, dstCk
	}
	recover := func(log, ck string) *Greylister {
		r := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
		w, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, r)
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		t.Cleanup(func() { w.Close() })
		return r
	}

	// Same generation, watermark at the phase-1 boundary: replay phase 2
	// only, on top of the phase-1 snapshot.
	r := recover(build(gen, uint64(watermark)))
	if got, want := dumpTables(r), dumpTables(full); got != want {
		t.Errorf("watermark skip: recovered != full run\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Checkpoint from a later generation: the whole log is stale.
	r = recover(build(gen+1, 0))
	if got, want := dumpTables(r), dumpTables(r1); got != want {
		t.Errorf("stale log: recovered != checkpoint state\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALLegacySnapshot feeds OpenWAL the checkpoints older daemons
// left behind: a raw pre-WAL Save file and a -shards 2 state file, each
// of which must load whole (generation 0) and upgrade to an enveloped
// checkpoint on the recovery compaction, and a -shards 2 stream inside a
// checkpoint envelope.
func TestWALLegacySnapshot(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	walWorkload(g, clock, 0, 120)
	var saved bytes.Buffer
	if err := g.Save(&saved); err != nil {
		t.Fatal(err)
	}
	clock2 := simtime.NewSim(simtime.Epoch)
	h := New(walTestPolicy(), clock2)
	walWorkload(h, clock2, 120, 200)
	sharded := legacyShardedStream(t, g, h)
	merged := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
	if err := merged.Load(bytes.NewReader(sharded)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		stream   []byte
		envelope bool
		want     *Greylister
	}{
		{"save", saved.Bytes(), false, g},
		{"shards", sharded, false, merged},
		{"shards-enveloped", sharded, true, merged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, ck := walPaths(dir)
			if tc.envelope {
				cw := &WAL{cfg: WALConfig{CheckpointPath: ck}}
				body := func(w io.Writer) error {
					_, err := w.Write(tc.stream)
					return err
				}
				if err := cw.writeCheckpoint(0, walHeaderSize, body); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(ck, tc.stream, 0o644); err != nil {
				t.Fatal(err)
			}

			r := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
			w, info := openTestWAL(t, dir, r, -1)
			defer w.Close()
			if !info.CheckpointLoaded || info.LegacySnapshot == tc.envelope {
				t.Fatalf("info = %+v, want checkpoint loaded with LegacySnapshot=%v", info, !tc.envelope)
			}
			if got, want := dumpTables(r), dumpTables(tc.want); got != want {
				t.Errorf("legacy snapshot load mismatch\ngot:\n%s\nwant:\n%s", got, want)
			}

			// The recovery compaction rewrote it enveloped: a second
			// recovery must see a normal checkpoint.
			r2 := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
			w2, info2 := openTestWAL(t, dir, r2, -1)
			defer w2.Close()
			if !info2.CheckpointLoaded || info2.LegacySnapshot {
				t.Fatalf("second recovery info = %+v, want enveloped checkpoint", info2)
			}
		})
	}
}

// TestWALKeyingMismatch: a log and checkpoint written under full-IP
// keying must refuse to load into a subnet-keyed engine (every stored
// key would be wrong) instead of silently corrupting the tables.
func TestWALKeyingMismatch(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, g, -1)
	walWorkload(g, clock, 0, 60)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	p := walTestPolicy()
	p.SubnetKeying = true
	r := New(p, simtime.NewSim(simtime.Epoch))
	log, ck := walPaths(dir)
	_, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone}, r)
	if !errors.Is(err, ErrWALMismatch) {
		t.Fatalf("err = %v, want ErrWALMismatch", err)
	}
}

// TestWALCloseCheckpoints: a clean Close leaves a checkpoint plus an
// empty log, reopening replays zero records, and the detached engine
// keeps serving (journaling off).
func TestWALCloseCheckpoints(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, g, -1)
	walWorkload(g, clock, 0, 200)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	log, _ := walPaths(dir)
	st, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != walHeaderSize {
		t.Fatalf("log after Close is %d bytes, want bare %d-byte header", st.Size(), walHeaderSize)
	}

	// Detached engine still serves.
	g.Check(Triplet{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "u@y.example"})

	before := dumpTables(g)
	r := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
	w2, info := openTestWAL(t, dir, r, -1)
	defer w2.Close()
	if info.ReplayedRecords != 0 || !info.CheckpointLoaded {
		t.Fatalf("info = %+v, want checkpoint only", info)
	}
	// The post-Close check above was not journaled; strip it by
	// comparing against the recovered dump plus nothing — the recovered
	// state must equal g at Close time, which lacks that one pending
	// record. Easiest: recovered tables must be a subset of g's current
	// dump minus exactly that record; assert by removing it from g.
	got := dumpTables(r)
	if got == before {
		t.Fatalf("recovery included the un-journaled post-Close check")
	}
	if want := before; !strings.Contains(want, "192.0.2.1") {
		t.Fatalf("setup: post-Close check missing from live dump")
	}
	var kept []string
	for _, line := range strings.SplitAfter(before, "\n") {
		if line == "" || strings.Contains(line, "192.0.2.1") {
			continue
		}
		kept = append(kept, line)
	}
	if want := strings.Join(kept, ""); got != want {
		t.Errorf("recovered state != state at Close\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALMetrics: the wal_* series are exported and move.
func TestWALMetrics(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, g, 4096)
	reg := metrics.NewRegistry()
	w.Register(reg)
	walWorkload(g, clock, 0, 300)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"wal_records_total", "wal_bytes_total", "wal_fsyncs_total",
		"wal_compactions_total", "wal_checkpoint_errors_total",
		"wal_checkpoint_bytes_total", "wal_replayed_records_total",
		"wal_torn_bytes_total", "wal_log_bytes", "wal_ring_backlog",
		"wal_compact_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	if w.nRecords.Load() == 0 || w.nCompactions.Load() == 0 {
		t.Fatalf("records=%d compactions=%d, want both nonzero", w.nRecords.Load(), w.nCompactions.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALKnownPassedNoAllocs locks in the acceptance criterion outside
// the benchmark harness: the known-passed fast path stays 0 allocs/op
// with the WAL attached.
func TestWALKnownPassedNoAllocs(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := walTestPolicy()
	p.PassLifetime = 0 // never expires, whatever AllocsPerRun's timing
	p.AutoWhitelistAfter = 0
	p.AutoWhitelistLifetime = 0
	g := New(p, clock)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, g, -1)
	defer w.Close()

	tr := Triplet{ClientIP: "203.0.113.7", Sender: "a@b.example", Recipient: "u@victim.example"}
	g.Check(tr)
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != ReasonRetryAccepted {
		t.Fatalf("warmup: %+v", v)
	}
	// Warm the consumer's frame buffer to its steady-state capacity.
	for i := 0; i < 2000; i++ {
		g.Check(tr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(2000, func() { g.Check(tr) }); allocs != 0 {
		t.Errorf("known-passed Check with WAL = %v allocs/op, want 0", allocs)
	}
}

// TestWALConsumerFailureDegrades: when the consumer dies on an I/O
// error (log file removed and the descriptor poisoned is hard to fake
// portably, so the file is closed out from under it via the failed
// flag), producers must drop records instead of wedging Check.
func TestWALConsumerFailure(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, g, -1)

	// Poison the consumer: close its file so the next write errors.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	walWorkload(g, clock, 0, 100) // must not wedge
	deadline := time.Now().Add(5 * time.Second)
	for !w.failed.Load() && time.Now().Before(deadline) {
		g.Check(Triplet{ClientIP: "198.51.100.1", Sender: "x@y.example", Recipient: "u@y.example"})
		time.Sleep(time.Millisecond)
	}
	if !w.failed.Load() {
		t.Fatal("consumer never marked itself failed after its file was closed")
	}
	// Checks keep serving with journaling off.
	g.Check(Triplet{ClientIP: "198.51.100.2", Sender: "x@y.example", Recipient: "u@y.example"})
	if err := w.Close(); err == nil {
		t.Fatal("Close after consumer death returned nil, want the parked error")
	}
}
