package greylist

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/simtime"
)

// seedPassed walks n triplets, one per client, through the greylisting
// dance, leaving n passed triplets and n auto-whitelist client records.
func seedPassed(g *Greylister, clock *simtime.Sim, n int) {
	var ts []Triplet
	var out []Verdict
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{
			ClientIP:  fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255),
			Sender:    fmt.Sprintf("s%d@corp%d.example", i, i%2000),
			Recipient: fmt.Sprintf("u%d@dest.example", i),
		})
	}
	out = g.CheckBatch(ts, out)
	clock.Advance(g.Policy().Threshold + time.Second)
	g.CheckBatch(ts, out)
}

// writeRecoveryFixture leaves in dir the files a crash leaves behind
// after a checkpoint of n passed triplets (seedPassed) and a fsynced log
// tail of n/4 first contacts and n/4 known-passed touches.
func writeRecoveryFixture(tb testing.TB, dir string, n int) {
	tb.Helper()
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	work := tb.TempDir()
	log, ck := walPaths(work)
	w, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, g)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	seedPassed(g, clock, n)
	if err := w.Compact(); err != nil {
		tb.Fatal(err)
	}
	clock.Advance(time.Minute)
	for i := 0; i < n/4; i++ {
		g.Check(Triplet{ClientIP: fmt.Sprintf("172.16.%d.%d", i>>8&255, i&255), Sender: "new@tail.example", Recipient: "u0@dest.example"})
		g.Check(Triplet{
			ClientIP:  fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255),
			Sender:    fmt.Sprintf("s%d@corp%d.example", i, i%2000),
			Recipient: fmt.Sprintf("u%d@dest.example", i),
		})
	}
	if err := w.Sync(); err != nil {
		tb.Fatal(err)
	}
	dstLog, dstCk := walPaths(dir)
	for src, dst := range map[string]string{log: dstLog, ck: dstCk} {
		data, err := os.ReadFile(src)
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkWALRecover times OpenWAL's recovery of a checkpoint of 100k
// passed triplets with their client records plus a 50k-record log tail,
// through the post-recovery checkpoint. Copying the files in and
// closing the WAL are not timed.
func BenchmarkWALRecover(b *testing.B) {
	src := b.TempDir()
	writeRecoveryFixture(b, src, 100000)
	srcLog, srcCk := walPaths(src)
	logData, err := os.ReadFile(srcLog)
	if err != nil {
		b.Fatal(err)
	}
	ckData, err := os.ReadFile(srcCk)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		log, ck := walPaths(b.TempDir())
		if err := os.WriteFile(log, logData, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(ck, ckData, 0o644); err != nil {
			b.Fatal(err)
		}
		g := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
		runtime.GC()
		b.StartTimer()
		w, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, g)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		w.Close()
		b.StartTimer()
	}
}

// BenchmarkCompactBarrier times the checkpoint barrier's exclusive lock
// hold over 100k passed triplets and their client records: drain the
// ring and capture the tables. Writing what it captured happens after
// the lock is released and is not timed. The WAL here has no consumer
// and is not attached, so the ring stays empty.
func BenchmarkCompactBarrier(b *testing.B) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(walTestPolicy(), clock)
	seedPassed(g, clock, 100000)
	w := &WAL{ring: make([]walSlot, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := g.walBarrier(w, false)
		b.StopTimer()
		if err := body(io.Discard); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkGCRecoveredTables forces collections over the state a
// restart recovers: 300k passed triplets, three for each of 100k
// auto-whitelist clients, loaded from a checkpoint. It reports the wall
// time of one forced runtime.GC (ms/gc) and the heap the loaded tables
// retain per passed or client entry (B/entry).
func BenchmarkGCRecoveredTables(b *testing.B) {
	const clients, perClient = 100000, 3
	clock := simtime.NewSim(simtime.Epoch)
	src := New(walTestPolicy(), clock)
	ts := make([]Triplet, 0, clients*perClient)
	for i := 0; i < clients*perClient; i++ {
		c := i % clients
		ts = append(ts, Triplet{
			ClientIP:  fmt.Sprintf("10.%d.%d.%d", c>>16&255, c>>8&255, c&255),
			Sender:    fmt.Sprintf("s%d@corp%d.example", c, c%2000),
			Recipient: fmt.Sprintf("u%d@dest.example", i/clients),
		})
	}
	out := src.CheckBatch(ts, nil)
	clock.Advance(src.Policy().Threshold + time.Second)
	src.CheckBatch(ts, out)
	var ckpt bytes.Buffer
	if err := src.Save(&ckpt); err != nil {
		b.Fatal(err)
	}
	src, ts, out = nil, nil, nil

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g := New(walTestPolicy(), clock)
	if err := g.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(&ckpt)
	entries := g.PassedCount() + g.ClientCount()
	if g.PassedCount() != clients*perClient || g.ClientCount() != clients {
		b.Fatalf("loaded %d passed, %d clients; want %d, %d", g.PassedCount(), g.ClientCount(), clients*perClient, clients)
	}
	ckpt = bytes.Buffer{}
	runtime.GC()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/1e3/float64(b.N), "ms/gc")
	b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/float64(entries), "B/entry")
	runtime.KeepAlive(g)
}
