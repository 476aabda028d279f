package bypass

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/greylist"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The chain's performance contract: with all three production stages
// enabled and warm, the chain-negative path (every stage misses, the
// triplet dance decides) and the known-passed path must allocate
// nothing — the bypass chain rides the same per-RCPT hot path the seed
// pinned at 0 allocs/op, and BenchmarkBareTriplet alongside measures
// what the chain itself costs over the bare check.

// benchEngine builds a greylister fronted by the full stage set, with
// every DNS answer pre-warmed into the stage caches.
func benchEngine(tb testing.TB, threshold time.Duration) (*greylist.Greylister, *simtime.Sim, greylist.Triplet) {
	p := greylist.DefaultPolicy()
	p.Threshold = threshold
	p.EarnedLifetime = 35 * 24 * time.Hour
	g, clock := chainEngine(tb, p)
	// 203.0.113.9 is chain-negative everywhere: not whitelisted, SPF
	// Fail for bulk.example, not DNSWL-listed, no PTR.
	tr := trip("203.0.113.9", "news@bulk.example")
	g.Check(tr) // warm every stage cache
	return g, clock, tr
}

// chainEngine builds a greylister with policy p fronted by the full
// stage set.
func chainEngine(tb testing.TB, p greylist.Policy) (*greylist.Greylister, *simtime.Sim) {
	e := newEnv(tb)
	g := greylist.New(p, e.clock)
	g.SetChain(greylist.NewChain(
		greylist.WhitelistStage(g.Whitelist()),
		e.spfStage(),
		DNSWL(e.res, "wl.example", CacheConfig{Clock: e.clock}),
		RDNS(e.res, CacheConfig{Clock: e.clock}),
	))
	return g, e.clock
}

// burst is a pipelined 16-RCPT envelope from tr's client and sender.
func burst(tr greylist.Triplet) []greylist.Triplet {
	ts := make([]greylist.Triplet, 16)
	for i := range ts {
		ts[i] = tr
		ts[i].Recipient = fmt.Sprintf("u%d@victim.example", i)
	}
	return ts
}

// batchAllocs checks that a 16-RCPT CheckBatch of a new chain-negative
// client's envelope through the full warm chain allocates nothing,
// while every recipient is deferred too soon and again once the client
// has passed.
func batchAllocs(t *testing.T, g *greylist.Greylister, clock *simtime.Sim, label string) {
	t.Helper()
	// 203.0.113.10 is chain-negative like benchEngine's client, but has
	// no earned grant yet.
	ts := burst(trip("203.0.113.10", "batch@bulk.example"))
	out := g.CheckBatch(ts, nil) // first seen: the inserts allocate
	if a := testing.AllocsPerRun(200, func() { out = g.CheckBatch(ts, out) }); a != 0 {
		t.Errorf("%s chain-negative 16-RCPT CheckBatch allocates %.1f/op", label, a)
	}
	if out[15].Reason != greylist.ReasonTooSoon {
		t.Fatalf("%s verdict = %+v, want too-soon", label, out[15])
	}
	clock.Advance(301 * time.Second)
	out = g.CheckBatch(ts, out) // retries accepted: the promotions allocate
	if a := testing.AllocsPerRun(200, func() { out = g.CheckBatch(ts, out) }); a != 0 {
		t.Errorf("%s passed 16-RCPT CheckBatch allocates %.1f/op", label, a)
	}
	if out[15].Decision != greylist.Pass {
		t.Fatalf("%s verdict = %+v, want pass", label, out[15])
	}
}

// rekeyedAllocs checks that checks from an SPF-passing client, keyed by
// its domain (bulk.example authorizes 192.0.2.0/24), allocate nothing:
// a lone too-soon Check, a pipelined 16-RCPT too-soon CheckBatch and a
// lone known-passed Check. The engine grants no earned whitelist and no
// auto-whitelist, either of which would answer before the passed table.
func rekeyedAllocs(t *testing.T, label string, observed bool) {
	t.Helper()
	p := greylist.DefaultPolicy()
	p.AutoWhitelistAfter = 0
	g, clock := chainEngine(t, p)
	if observed {
		g.SetObserver(obs.New(obs.Config{Clock: clock}).Greylist())
	}
	tr := trip("192.0.2.10", "news@bulk.example")
	if v := g.Check(tr); v.Reason != greylist.ReasonFirstSeen || g.Stats().SPFRekeyed != 1 {
		t.Fatalf("%s SPF-passing verdict = %+v, rekeyed %d", label, v, g.Stats().SPFRekeyed)
	}
	if a := testing.AllocsPerRun(200, func() { g.Check(tr) }); a != 0 {
		t.Errorf("%s rekeyed too-soon Check allocates %.1f/op", label, a)
	}
	ts := burst(trip("192.0.2.11", "news@bulk.example"))
	out := g.CheckBatch(ts, nil) // first seen: the inserts allocate
	if a := testing.AllocsPerRun(200, func() { out = g.CheckBatch(ts, out) }); a != 0 {
		t.Errorf("%s rekeyed 16-RCPT CheckBatch allocates %.1f/op", label, a)
	}
	if out[15].Reason != greylist.ReasonTooSoon {
		t.Fatalf("%s batch verdict = %+v, want too-soon", label, out[15])
	}
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != greylist.ReasonRetryAccepted {
		t.Fatalf("%s promote verdict = %+v", label, v)
	}
	if a := testing.AllocsPerRun(200, func() { g.Check(tr) }); a != 0 {
		t.Errorf("%s rekeyed known-passed Check allocates %.1f/op", label, a)
	}
	if v := g.Check(tr); v.Reason != greylist.ReasonKnownTriplet {
		t.Fatalf("%s verdict = %+v, want known-triplet", label, v)
	}
}

// BenchmarkCheckBatchChain is one pipelined 16-RCPT envelope from a
// client that has passed the dance, through the full warm chain: the
// batch greylistd decides for a pipelined transaction of a known sender.
// ns/rcpt is ns/op over the 16 recipients.
func BenchmarkCheckBatchChain(b *testing.B) {
	g, clock, tr := benchEngine(b, 300*time.Second)
	ts := burst(tr)
	out := g.CheckBatch(ts, nil)
	clock.Advance(301 * time.Second)
	out = g.CheckBatch(ts, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = g.CheckBatch(ts, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/rcpt")
}

func BenchmarkCheckChainNegative(b *testing.B) {
	g, _, tr := benchEngine(b, 300*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(tr)
	}
}

func BenchmarkCheckChainKnownPassed(b *testing.B) {
	g, clock, tr := benchEngine(b, 300*time.Second)
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != greylist.ReasonRetryAccepted {
		b.Fatalf("warmup verdict = %+v", v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(tr)
	}
}

// BenchmarkBareTriplet is the no-chain baseline the two benchmarks
// above are read against: the artifact's "chain-negative overhead" is
// ChainNegative minus this.
func BenchmarkBareTriplet(b *testing.B) {
	clock := simtime.NewSim(simtime.Epoch)
	p := greylist.DefaultPolicy()
	p.Threshold = 300 * time.Second
	g := greylist.New(p, clock)
	tr := trip("203.0.113.9", "news@bulk.example")
	g.Check(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(tr)
	}
}

// TestHotPathAllocs enforces in the ordinary test run what the
// benchmarks report: 0 allocs/op for chain-negative, known-passed and
// SPF-rekeyed checks with every stage enabled.
func TestHotPathAllocs(t *testing.T) {
	g, clock, tr := benchEngine(t, 300*time.Second)
	if a := testing.AllocsPerRun(200, func() { g.Check(tr) }); a != 0 {
		t.Errorf("chain-negative Check allocates %.1f/op", a)
	}
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != greylist.ReasonRetryAccepted {
		t.Fatalf("promote verdict = %+v", v)
	}
	if a := testing.AllocsPerRun(200, func() { g.Check(tr) }); a != 0 {
		t.Errorf("known-passed Check allocates %.1f/op", a)
	}
	// The earned fast path (granted by the promote above, keyed by the
	// client) must be allocation-free too.
	earned := trip("203.0.113.9", "other@elsewhere.example")
	if v := g.Check(earned); v.Reason != greylist.ReasonEarnedWhitelist {
		t.Fatalf("earned verdict = %+v", v)
	}
	if a := testing.AllocsPerRun(200, func() { g.Check(earned) }); a != 0 {
		t.Errorf("earned Check allocates %.1f/op", a)
	}
	batchAllocs(t, g, clock, "")
	rekeyedAllocs(t, "", false)
}

// benchEngineObserved is benchEngine with the live observatory's
// verdict observer installed — the configuration a production greylistd
// with -admin-addr runs. The warm check after SetObserver seeds the
// top-K tables so the steady state is a monitored-key map hit.
func benchEngineObserved(tb testing.TB, threshold time.Duration) (*greylist.Greylister, *simtime.Sim, greylist.Triplet) {
	g, clock, tr := benchEngine(tb, threshold)
	o := obs.New(obs.Config{Clock: clock})
	g.SetObserver(o.Greylist())
	o.WatchGreylist(g.Stats)
	g.Check(tr)
	return g, clock, tr
}

// TestHotPathAllocsObserved extends the 0 allocs/op contract to the
// observatory-enabled engine: sketch records are per-window atomics,
// counters are only polled at rotation, and observing a monitored
// top-K key is a map hit — so turning the observatory on must not cost
// the hot path a single allocation.
func TestHotPathAllocsObserved(t *testing.T) {
	g, clock, tr := benchEngineObserved(t, 300*time.Second)
	if a := testing.AllocsPerRun(200, func() { g.Check(tr) }); a != 0 {
		t.Errorf("observed chain-negative Check allocates %.1f/op", a)
	}
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != greylist.ReasonRetryAccepted {
		t.Fatalf("promote verdict = %+v", v)
	}
	if a := testing.AllocsPerRun(200, func() { g.Check(tr) }); a != 0 {
		t.Errorf("observed known-passed Check allocates %.1f/op", a)
	}
	earned := trip("203.0.113.9", "other@elsewhere.example")
	if v := g.Check(earned); v.Reason != greylist.ReasonEarnedWhitelist {
		t.Fatalf("earned verdict = %+v", v)
	}
	if a := testing.AllocsPerRun(200, func() { g.Check(earned) }); a != 0 {
		t.Errorf("observed earned Check allocates %.1f/op", a)
	}
	batchAllocs(t, g, clock, "observed")
	rekeyedAllocs(t, "observed", true)
}

func BenchmarkCheckChainNegativeObserved(b *testing.B) {
	g, _, tr := benchEngineObserved(b, 300*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(tr)
	}
}

func BenchmarkCheckChainKnownPassedObserved(b *testing.B) {
	g, clock, tr := benchEngineObserved(b, 300*time.Second)
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Reason != greylist.ReasonRetryAccepted {
		b.Fatalf("warmup verdict = %+v", v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Check(tr)
	}
}
