package greylist

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

// pendingShape reads the pending table's slab chunk count and arena
// bytes under the read lock.
func pendingShape(g *Greylister) (slabChunks, arenaLen int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.pending.slab), arenaBytes(&g.pending)
}

// TestConcurrentMixedOps hammers the engine from many goroutines —
// Check, CheckBatch, GC, Save, Stats, counts — while another advances the
// sim clock, locking in the RWMutex fast path and the atomic record
// fields under the race detector (go test -race ./internal/greylist/...
// is part of the tier-1 recipe). Meanwhile a grower grows the pending
// table's slab by several chunks and expires what it inserted, so that
// its arena is rewritten, while the workers' and a reader's fast-path
// hits run beside it.
func TestConcurrentMixedOps(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.AutoWhitelistAfter = 3
	g := New(p, clock)
	g.Whitelist().AddRecipient("postmaster@foo.net")

	const (
		workers = 8
		iters   = 400
	)
	var wg sync.WaitGroup

	// The reader's passed triplet, promoted before the clock starts
	// racing ahead.
	hot := Triplet{ClientIP: "192.0.2.77", Sender: "hot@x.example", Recipient: "u@foo.net"}
	g.Check(hot)
	clock.Advance(301 * time.Second)
	if v := g.Check(hot); v.Reason != ReasonRetryAccepted {
		t.Fatalf("setup: %+v", v)
	}

	// Clock advancer: pushes time forward so checks cross the threshold,
	// promote to passed, and exercise the read-locked known-passed path.
	stop := make(chan struct{})
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(90 * time.Second)
			}
		}
	}()

	// Reader: the passed triplet, whose client is credited, checked
	// over and over on the read-locked path (until it expires).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*iters; i++ {
			if v := g.Check(hot); v.Decision != Defer && v.Decision != Pass {
				t.Errorf("reader: zero verdict %+v", v)
			}
		}
	}()

	// Grower: 2048 fresh triplets a round, in one batch, then a jump
	// past the retry window and a GC. The workers keep at most 129
	// pending triplets, one slab chunk's worth, so the first round adds
	// at least three chunks. Each batch leaves 2048 keys of at least
	// minKey bytes in the arena, and once they have expired the arena
	// is rewritten, by the GC of the grower or of a worker, so the
	// grower's GC returns with the arena shorter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const n, minKey = 2048, len("198.51.100.9\x00g0@x.example\x00r0@foo.net")
		batch := make([]Triplet, n)
		var out []Verdict
		for round := 0; round < 3; round++ {
			for i := range batch {
				batch[i] = Triplet{ClientIP: "198.51.100.9", Sender: fmt.Sprintf("g%d@x.example", round), Recipient: fmt.Sprintf("r%d@foo.net", i)}
			}
			before, _ := pendingShape(g)
			out = g.CheckBatch(batch, out)
			after, _ := pendingShape(g)
			if round == 0 && (before > 1 || after < n/slabChunk) {
				t.Errorf("pending slab %d chunks before %d inserts, %d after; want at most 1, at least %d", before, n, after, n/slabChunk)
			}
			clock.Advance(p.RetryWindow + time.Hour)
			g.GC()
			if _, arena := pendingShape(g); arena >= n*minKey {
				t.Errorf("round %d: pending arena %d bytes after its %d keys expired; want it rewritten below %d", round, arena, n, n*minKey)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []Verdict
			batch := make([]Triplet, 0, 4)
			for i := 0; i < iters; i++ {
				tr := Triplet{
					ClientIP:  fmt.Sprintf("203.0.113.%d", i%32),
					Sender:    fmt.Sprintf("s%d@x.example", i%16),
					Recipient: fmt.Sprintf("u%d@foo.net", w%4),
				}
				switch i % 8 {
				case 0:
					batch = append(batch[:0], tr,
						Triplet{ClientIP: tr.ClientIP, Sender: tr.Sender, Recipient: "postmaster@foo.net"},
						Triplet{ClientIP: "2001:db8::1", Sender: "v6@x.example", Recipient: "u@foo.net"})
					out = g.CheckBatch(batch, out)
					for j, v := range out {
						if v.Decision != Defer && v.Decision != Pass {
							t.Errorf("batch[%d]: zero verdict %+v", j, v)
						}
					}
				case 3:
					g.GC()
				case 5:
					var buf bytes.Buffer
					if err := g.Save(&buf); err != nil {
						t.Errorf("Save: %v", err)
					}
				case 7:
					_ = g.Stats()
					_ = g.PendingCount()
					_ = g.PassedCount()
				default:
					if v := g.Check(tr); v.Decision != Defer && v.Decision != Pass {
						t.Errorf("check: zero verdict %+v", v)
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	<-advanced
	if st := g.Stats(); st.Checks == 0 {
		t.Fatal("no checks counted")
	}
}

// TestConcurrentGreylisterFastPath drives a single Greylister to the
// known-passed and auto-whitelisted states, then hits it from many
// goroutines at once: every hit should take the read-locked fast path
// concurrently and agree on the verdict.
func TestConcurrentGreylisterFastPath(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.AutoWhitelistAfter = 2
	g := New(p, clock)

	tr := Triplet{ClientIP: "198.51.100.7", Sender: "a@x.example", Recipient: "u@foo.net"}
	g.Check(tr)
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != ReasonRetryAccepted {
		t.Fatalf("setup: %+v", v)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := g.Check(tr)
				if v.Decision != Pass {
					t.Errorf("fast path deferred: %+v", v)
					return
				}
				if v.Reason != ReasonKnownTriplet && v.Reason != ReasonAutoWhitelisted {
					t.Errorf("unexpected reason: %+v", v)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := g.Stats()
	if got := st.PassedKnown + st.PassedAutoClient; got < workers*500 {
		t.Fatalf("passed counters = %d, want >= %d", got, workers*500)
	}
}

// TestConcurrentSaveVsCheck hammers Save (now read-locked — snapshots
// must not stall the known-passed fast path) against concurrent Check,
// CheckBatch and GC on a single Greylister. Under -race this locks in
// that Save's map iteration is safe alongside fast-path atomic updates
// and write-locked mutations.
func TestConcurrentSaveVsCheck(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.AutoWhitelistAfter = 3
	g := New(p, clock)

	// Warm a passed triplet so checkers exercise the read-locked path.
	warm := Triplet{ClientIP: "192.0.2.1", Sender: "w@x.example", Recipient: "u@foo.net"}
	g.Check(warm)
	clock.Advance(301 * time.Second)
	if v := g.Check(warm); v.Decision != Pass {
		t.Fatalf("warmup: %+v", v)
	}

	stop := make(chan struct{})
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(45 * time.Second)
			}
		}
	}()

	const savers = 2
	var wg sync.WaitGroup
	for w := 0; w < savers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var buf bytes.Buffer
				if err := g.Save(&buf); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []Verdict
			for i := 0; i < 500; i++ {
				switch i % 16 {
				case 9:
					g.GC()
				case 13:
					out = g.CheckBatch([]Triplet{warm, {
						ClientIP:  fmt.Sprintf("203.0.113.%d", i%24),
						Sender:    "b@x.example",
						Recipient: "u@foo.net",
					}}, out)
				default:
					tr := warm
					if i%4 == 0 {
						tr = Triplet{
							ClientIP:  fmt.Sprintf("198.51.100.%d", (w*31+i)%40),
							Sender:    fmt.Sprintf("s%d@x.example", i%8),
							Recipient: "u@foo.net",
						}
					}
					if v := g.Check(tr); v.Decision != Defer && v.Decision != Pass {
						t.Errorf("zero verdict %+v", v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-advanced

	// A final snapshot must round-trip everything the hammering built
	// (the sim clock may have raced far enough to expire the warm
	// triplet, so assert on the counters, which are stable now).
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := New(p, clock)
	if err := g2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := g2.Stats(), g.Stats(); got != want {
		t.Fatalf("restored stats = %+v, want %+v", got, want)
	}
}
