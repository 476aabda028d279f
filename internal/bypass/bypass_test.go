package bypass

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnsbl"
	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/dnsserver"
	"repro/internal/greylist"
	"repro/internal/simtime"
	"repro/internal/spf"
)

// testEnv is a DNS universe with one SPF-publishing domain
// (bulk.example authorizing 192.0.2.0/24), one DNSWL (wl.example,
// listing 198.51.100.7), and PTR names for a mail server
// (203.0.113.25 -> smtp1.provider.example) and a dial-up pool host
// (203.0.113.80 -> 80-113-0-203.dyn.isp.example).
type testEnv struct {
	dns   *dnsserver.Server
	res   *dnsresolver.Resolver
	clock *simtime.Sim
	wl    *dnsbl.List
	down  bool
	// exchanges counts the DNS exchanges the stages attempted.
	exchanges atomic.Int64
}

func newEnv(t testing.TB) *testEnv {
	t.Helper()
	e := &testEnv{dns: dnsserver.New(), clock: simtime.NewSim(simtime.Epoch)}

	z := dnsserver.NewZone("bulk.example")
	z.MustAdd(dnsmsg.RR{Name: "bulk.example", Type: dnsmsg.TypeTXT, TTL: 300,
		Data: spf.Record("ip4:192.0.2.0/24", "-all")})
	e.dns.AddZone(z)

	e.wl = dnsbl.New("wl.example", e.dns, e.clock)
	if err := e.wl.Add("198.51.100.7"); err != nil {
		t.Fatal(err)
	}

	ptr := dnsserver.NewZone("in-addr.arpa")
	ptr.MustAdd(dnsmsg.RR{Name: "25.113.0.203.in-addr.arpa", Type: dnsmsg.TypePTR, TTL: 300,
		Data: dnsmsg.PTR{Target: "smtp1.provider.example"}})
	ptr.MustAdd(dnsmsg.RR{Name: "80.113.0.203.in-addr.arpa", Type: dnsmsg.TypePTR, TTL: 300,
		Data: dnsmsg.PTR{Target: "80-113-0-203.dyn.isp.example"}})
	e.dns.AddZone(ptr)

	direct := dnsresolver.Direct(e.dns)
	flaky := dnsresolver.TransportFunc(func(q *dnsmsg.Message) (*dnsmsg.Message, error) {
		e.exchanges.Add(1)
		if e.down {
			return nil, errors.New("dns unreachable")
		}
		return direct.Exchange(q)
	})
	e.res = dnsresolver.New(flaky, e.clock)
	e.res.DisableCache = true
	return e
}

func (e *testEnv) spfStage() *SPFStage {
	return SPF(spf.NewCached(spf.New(e.res), spf.CacheConfig{Clock: e.clock}))
}

func trip(ip, sender string) greylist.Triplet {
	return greylist.Triplet{ClientIP: ip, Sender: sender, Recipient: "u@victim.example"}
}

func TestSPFStage(t *testing.T) {
	e := newEnv(t)
	s := e.spfStage()

	out, err := s.Eval(trip("192.0.2.10", "news@bulk.example"))
	if err != nil || out.Action != greylist.StageRekey || out.Domain != "bulk.example" {
		t.Fatalf("authorized IP = %+v, %v; want rekey/bulk.example", out, err)
	}
	// SPF Fail is a skip: rejecting is the MTA's call, not the chain's.
	out, err = s.Eval(trip("203.0.113.9", "news@bulk.example"))
	if err != nil || out.Action != greylist.StageSkip {
		t.Fatalf("unauthorized IP = %+v, %v; want skip", out, err)
	}
	// Null sender: skip without DNS traffic.
	q0, _ := e.res.Stats()
	out, err = s.Eval(trip("192.0.2.10", ""))
	if err != nil || out.Action != greylist.StageSkip {
		t.Fatalf("null sender = %+v, %v", out, err)
	}
	if q1, _ := e.res.Stats(); q1 != q0 {
		t.Fatalf("null sender hit the resolver (%d -> %d queries)", q0, q1)
	}
}

func TestSPFStageTempErrorFailsOpen(t *testing.T) {
	e := newEnv(t)
	s := e.spfStage()
	e.down = true
	out, err := s.Eval(trip("192.0.2.10", "news@bulk.example"))
	if err == nil || out.Action != greylist.StageSkip {
		t.Fatalf("DNS-down eval = %+v, %v; want skip with error", out, err)
	}
	// Behind a chain the error means plain greylisting, not a crash or
	// a bypass.
	g := greylist.New(greylist.DefaultPolicy(), e.clock)
	g.SetChain(greylist.NewChain(s))
	if v := g.Check(trip("192.0.2.10", "news@bulk.example")); v.Decision != greylist.Defer {
		t.Fatalf("verdict with DNS down = %+v, want defer", v)
	}
	if st := g.Chain().StageStats(); st[0].Errors != 1 {
		t.Fatalf("stage errors = %+v", st)
	}
}

// TestBatchOutageOncePerEnvelope: with the resolver down, a pipelined
// 16-RCPT burst costs each erroring stage one failed lookup, not one per
// recipient, and every recipient still counts the stage's error and is
// greylisted as usual.
func TestBatchOutageOncePerEnvelope(t *testing.T) {
	e := newEnv(t)
	g := greylist.New(greylist.DefaultPolicy(), e.clock)
	g.SetChain(greylist.NewChain(
		greylist.WhitelistStage(g.Whitelist()),
		e.spfStage(),
		DNSWL(e.res, "wl.example", CacheConfig{Clock: e.clock}),
		RDNS(e.res, CacheConfig{Clock: e.clock}),
	))
	e.down = true
	ts := make([]greylist.Triplet, 16)
	for i := range ts {
		ts[i] = greylist.Triplet{ClientIP: "192.0.2.10", Sender: "news@bulk.example", Recipient: fmt.Sprintf("u%d@victim.example", i)}
	}
	for i, v := range g.CheckBatch(ts, nil) {
		if v.Decision != greylist.Defer || v.Reason != greylist.ReasonFirstSeen {
			t.Fatalf("verdict %d with DNS down = %+v, want defer/first-seen", i, v)
		}
	}
	if n := e.exchanges.Load(); n != 3 {
		t.Errorf("%d DNS exchanges for one envelope, want 3 (one per DNS-backed stage)", n)
	}
	for _, st := range g.Chain().StageStats()[1:] {
		if st.Errors != uint64(len(ts)) {
			t.Errorf("stage %s: %d errors, want %d (one per recipient)", st.Name, st.Errors, len(ts))
		}
	}
}

func TestDNSWLStage(t *testing.T) {
	e := newEnv(t)
	s := DNSWL(e.res, "wl.example", CacheConfig{Clock: e.clock})

	out, err := s.Eval(trip("198.51.100.7", "a@b.example"))
	if err != nil || out.Action != greylist.StageBypass || out.Reason != greylist.ReasonDNSWL {
		t.Fatalf("listed client = %+v, %v", out, err)
	}
	out, err = s.Eval(trip("198.51.100.8", "a@b.example"))
	if err != nil || out.Action != greylist.StageSkip {
		t.Fatalf("unlisted client = %+v, %v", out, err)
	}
	// Second eval answers from the cache: no new resolver queries.
	q0, _ := e.res.Stats()
	if out, _ := s.Eval(trip("198.51.100.7", "a@b.example")); out.Action != greylist.StageBypass {
		t.Fatalf("cached eval = %+v", out)
	}
	if q1, _ := e.res.Stats(); q1 != q0 {
		t.Fatalf("cached eval hit the resolver")
	}
	// A garbage client IP is an error (counted, failed open), not a lie.
	if _, err := s.Eval(trip("not-an-ip", "a@b.example")); err == nil {
		t.Fatal("garbage IP produced no error")
	}
	// Cache entries expire: delist, advance past the TTL, re-ask.
	if err := e.wl.Remove("198.51.100.7"); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if out, _ := s.Eval(trip("198.51.100.7", "a@b.example")); out.Action != greylist.StageSkip {
		t.Fatalf("post-delist eval = %+v, want skip", out)
	}
}

// TestDNSWLStageOutage: a failed DNSWL lookup is an error (counted,
// failed open) and is not cached, so a listed client bypasses on its
// first check after the resolver recovers.
func TestDNSWLStageOutage(t *testing.T) {
	e := newEnv(t)
	g := greylist.New(greylist.DefaultPolicy(), e.clock)
	g.SetChain(greylist.NewChain(DNSWL(e.res, "wl.example", CacheConfig{Clock: e.clock})))
	listed := trip("198.51.100.7", "a@b.example")
	e.down = true
	if v := g.Check(listed); v.Decision != greylist.Defer {
		t.Fatalf("verdict with DNS down = %+v, want defer", v)
	}
	if st := g.Chain().StageStats(); st[0].Errors != 1 {
		t.Fatalf("stage stats with DNS down = %+v, want 1 error", st)
	}
	e.down = false
	if v := g.Check(listed); v.Reason != greylist.ReasonDNSWL {
		t.Fatalf("verdict after recovery = %+v, want dnswl-listed", v)
	}
}

func TestRDNSStage(t *testing.T) {
	e := newEnv(t)
	s := RDNS(e.res, CacheConfig{Clock: e.clock})

	out, err := s.Eval(trip("203.0.113.25", "a@b.example"))
	if err != nil || out.Action != greylist.StageBypass || out.Reason != greylist.ReasonRDNS {
		t.Fatalf("mail-server PTR = %+v, %v", out, err)
	}
	// Dynamic-pool PTR and missing PTR both skip.
	if out, err := s.Eval(trip("203.0.113.80", "a@b.example")); err != nil || out.Action != greylist.StageSkip {
		t.Fatalf("pool PTR = %+v, %v", out, err)
	}
	if out, err := s.Eval(trip("203.0.113.99", "a@b.example")); err != nil || out.Action != greylist.StageSkip {
		t.Fatalf("no PTR = %+v, %v", out, err)
	}
	// Cached: no resolver traffic on repeats.
	q0, _ := e.res.Stats()
	s.Eval(trip("203.0.113.25", "a@b.example"))
	s.Eval(trip("203.0.113.80", "a@b.example"))
	if q1, _ := e.res.Stats(); q1 != q0 {
		t.Fatal("cached evals hit the resolver")
	}
	// DNS down on a cache miss: error, fail open.
	e.down = true
	if _, err := s.Eval(trip("203.0.113.42", "a@b.example")); err == nil {
		t.Fatal("DNS-down eval produced no error")
	}
	// The cached mail server still bypasses during the outage.
	if out, err := s.Eval(trip("203.0.113.25", "a@b.example")); err != nil || out.Action != greylist.StageBypass {
		t.Fatalf("cached eval during outage = %+v, %v", out, err)
	}
}

func TestLooksLikeMailServer(t *testing.T) {
	yes := []string{
		"smtp1.provider.example",
		"mail.tiny.example",
		"MX7.BIG.EXAMPLE",
		"out4.bulk.example",
		"relay-3.isp.example",
	}
	no := []string{
		"1-2-3-4.dyn.isp.example",
		"mail.pool.isp.example", // pool veto beats the mail token
		"dsl-66-163-1-2.isp.example",
		"host99.isp.example",
		"",
	}
	for _, h := range yes {
		if !LooksLikeMailServer(h) {
			t.Errorf("LooksLikeMailServer(%q) = false", h)
		}
	}
	for _, h := range no {
		if LooksLikeMailServer(h) {
			t.Errorf("LooksLikeMailServer(%q) = true", h)
		}
	}
}

// TestStagesConcurrent hammers all three stages from many goroutines
// while the caches churn; -race is the assertion.
func TestStagesConcurrent(t *testing.T) {
	e := newEnv(t)
	stages := []greylist.Stage{e.spfStage(), DNSWL(e.res, "wl.example", CacheConfig{Clock: e.clock}), RDNS(e.res, CacheConfig{Clock: e.clock})}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ip := fmt.Sprintf("192.0.2.%d", (w*37+i)%256)
				for _, s := range stages {
					s.Eval(trip(ip, "news@bulk.example"))
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheBound keeps the per-IP caches from growing without limit
// under unique-IP churn.
func TestCacheBound(t *testing.T) {
	e := newEnv(t)
	s := DNSWL(e.res, "wl.example", CacheConfig{Clock: e.clock, MaxEntries: 64})
	for i := 0; i < 300; i++ {
		s.Eval(trip(fmt.Sprintf("10.9.%d.%d", i/250, i%250), "a@b.example"))
	}
	if n := s.cache.entries(); n > 64 {
		t.Fatalf("cache grew to %d entries past the 64 bound", n)
	}
}

// TestTruncatedAnswersFailOpen: behind a loopback DNS server that
// answers every query with TC=1, each DNS stage errors instead of
// reading the cut answer as complete: SPF as a temperror, DNSWL and
// rDNS as errors. The chain counts one per stage and fails open to
// plain greylisting.
func TestTruncatedAnswersFailOpen(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer func() {
		pc.Close()
		<-done
	}()
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			r := q.Reply()
			r.Header.Truncated = true
			if b, err := r.Pack(); err == nil {
				pc.WriteTo(b, from)
			}
		}
	}()
	tr := dnsresolver.UDP(pc.LocalAddr().String(), 2*time.Second)
	defer tr.Close()
	clock := simtime.NewSim(simtime.Epoch)
	res := dnsresolver.New(tr, clock)
	checker := spf.NewCached(spf.New(res), spf.CacheConfig{Clock: clock})
	if r, err := checker.Check("203.0.113.25", "news@bulk.example", ""); r != spf.ResultTempError || !errors.Is(err, dnsresolver.ErrTruncated) {
		t.Fatalf("SPF check = %v, %v; want temperror wrapping ErrTruncated", r, err)
	}

	g := greylist.New(greylist.DefaultPolicy(), clock)
	g.SetChain(greylist.NewChain(SPF(checker),
		DNSWL(res, "wl.example", CacheConfig{Clock: clock}), RDNS(res, CacheConfig{Clock: clock})))
	if v := g.Check(trip("203.0.113.25", "news@bulk.example")); v.Decision != greylist.Defer || v.Reason != greylist.ReasonFirstSeen {
		t.Fatalf("verdict = %+v, want a first-seen deferral", v)
	}
	for _, st := range g.Chain().StageStats() {
		if st.Errors != 1 {
			t.Errorf("stage %s: %d errors, want 1", st.Name, st.Errors)
		}
	}
}
