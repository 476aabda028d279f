package greylist

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

// TestConcurrentMixedOps hammers the engine from many goroutines —
// Check, CheckBatch, GC, Save, Stats, counts — while another advances the
// sim clock, locking in the RWMutex fast path and the atomic record
// fields under the race detector (go test -race ./internal/greylist/...
// is part of the tier-1 recipe).
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
