package greylist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// stubStage is a scriptable bypass stage for chain tests.
type stubStage struct {
	name  string
	out   StageOutcome
	err   error
	calls int
}

func (s *stubStage) Name() string { return s.name }
func (s *stubStage) Eval(Triplet) (StageOutcome, error) {
	s.calls++
	return s.out, s.err
}

// senderDomainRekey mimics the SPF stage's happy path: rekey every
// check by the sender's domain.
type senderDomainRekey struct{}

func (senderDomainRekey) Name() string { return "spf" }
func (senderDomainRekey) Eval(t Triplet) (StageOutcome, error) {
	at := -1
	for i := 0; i < len(t.Sender); i++ {
		if t.Sender[i] == '@' {
			at = i
		}
	}
	if at < 0 {
		return StageOutcome{}, nil
	}
	return StageOutcome{Action: StageRekey, Domain: t.Sender[at+1:]}, nil
}

func TestChainFirstMatchWins(t *testing.T) {
	skip := &stubStage{name: "skip"}
	hit := &stubStage{name: "dnswl", out: StageOutcome{Action: StageBypass, Reason: ReasonDNSWL}}
	shadowed := &stubStage{name: "rdns", out: StageOutcome{Action: StageBypass, Reason: ReasonRDNS}}
	g, _ := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(skip, hit, shadowed))

	v := g.Check(testTriplet)
	if v.Decision != Pass || v.Reason != ReasonDNSWL {
		t.Fatalf("verdict = %+v, want pass/dnswl-listed", v)
	}
	if skip.calls != 1 || hit.calls != 1 || shadowed.calls != 0 {
		t.Fatalf("calls = %d/%d/%d, want 1/1/0 (first match ends evaluation)",
			skip.calls, hit.calls, shadowed.calls)
	}
	stats := g.Chain().StageStats()
	if stats[1].Hits != 1 || stats[2].Hits != 0 {
		t.Fatalf("stage stats = %+v", stats)
	}
	if s := g.Stats(); s.PassedDNSWL != 1 || s.Checks != 1 {
		t.Fatalf("engine stats = %+v", s)
	}
}

func TestChainStageErrorFailsOpen(t *testing.T) {
	bad := &stubStage{name: "dnswl", err: errors.New("resolver down")}
	g, _ := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(WhitelistStage(g.Whitelist()), bad))

	// With every stage skipping or erroring, the chain degrades to plain
	// greylisting: first attempt deferred, not rejected or passed.
	v := g.Check(testTriplet)
	if v.Decision != Defer || v.Reason != ReasonFirstSeen {
		t.Fatalf("verdict = %+v, want defer/first-seen", v)
	}
	if st := g.Chain().StageStats(); st[1].Errors != 1 || st[1].Hits != 0 {
		t.Fatalf("error not counted: %+v", st)
	}

	// An erroring stage ahead of a matching one must not mask it.
	g2, _ := newTestGreylister(300 * time.Second)
	g2.Whitelist().AddRecipient(testTriplet.Recipient)
	g2.SetChain(NewChain(bad, WhitelistStage(g2.Whitelist())))
	if v := g2.Check(testTriplet); v.Decision != Pass || v.Reason != ReasonWhitelisted {
		t.Fatalf("verdict behind erroring stage = %+v, want pass/whitelisted", v)
	}
}

// TestChainDisabledVsErroring: a stage that is absent (disabled by
// flags) and a stage that errors on every call produce identical
// verdict streams — the difference is visible only in the error
// counters. This is the fail-open contract operators rely on.
func TestChainDisabledVsErroring(t *testing.T) {
	disabled, _ := newTestGreylister(300 * time.Second)
	disabled.SetChain(NewChain(WhitelistStage(disabled.Whitelist())))

	erroring, _ := newTestGreylister(300 * time.Second)
	bad := &stubStage{name: "spf", err: errors.New("dns timeout")}
	erroring.SetChain(NewChain(WhitelistStage(erroring.Whitelist()), bad))

	trips := []Triplet{
		testTriplet,
		{ClientIP: "198.51.100.7", Sender: "a@b.example", Recipient: "c@foo.net"},
		testTriplet,
	}
	for i, tr := range trips {
		v1, v2 := disabled.Check(tr), erroring.Check(tr)
		if v1 != v2 {
			t.Fatalf("verdict %d diverged: disabled=%+v erroring=%+v", i, v1, v2)
		}
	}
	if st := erroring.Chain().StageStats(); st[1].Errors != uint64(len(trips)) {
		t.Fatalf("errors = %d, want %d", st[1].Errors, len(trips))
	}
}

// TestChainRekeySharesState is the point of SPF-domain keying: a
// provider retrying from a different outbound IP continues the triplet
// dance its first IP started.
func TestChainRekeySharesState(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(senderDomainRekey{}))

	first := Triplet{ClientIP: "192.0.2.10", Sender: "news@bulk.example", Recipient: "user@foo.net"}
	if v := g.Check(first); v.Decision != Defer || v.Reason != ReasonFirstSeen {
		t.Fatalf("first attempt = %+v", v)
	}
	clock.Advance(301 * time.Second)
	// Retry from a different host in a different network entirely.
	second := Triplet{ClientIP: "203.0.113.99", Sender: "news@bulk.example", Recipient: "user@foo.net"}
	v := g.Check(second)
	if v.Decision != Pass || v.Reason != ReasonRetryAccepted {
		t.Fatalf("cross-IP retry = %+v, want pass/retry-accepted", v)
	}
	if s := g.Stats(); s.SPFRekeyed != 2 {
		t.Fatalf("SPFRekeyed = %d, want 2", s.SPFRekeyed)
	}
	// A different sender domain does not share the state.
	other := Triplet{ClientIP: "192.0.2.10", Sender: "news@other.example", Recipient: "user@foo.net"}
	if v := g.Check(other); v.Decision != Defer {
		t.Fatalf("other domain = %+v, want defer", v)
	}
}

func TestChainRekeyDomainCaseInsensitive(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(senderDomainRekey{}))
	g.Check(Triplet{ClientIP: "192.0.2.10", Sender: "a@Bulk.Example", Recipient: "u@foo.net"})
	clock.Advance(301 * time.Second)
	v := g.Check(Triplet{ClientIP: "192.0.2.11", Sender: "a@bulk.example", Recipient: "u@foo.net"})
	if v.Decision != Pass || v.Reason != ReasonRetryAccepted {
		t.Fatalf("case-folded rekey retry = %+v", v)
	}
}

// TestChainRekeyEmptyDomainSkips: a rekey to nowhere is a skip, not a
// crash or an empty-keyed shared bucket.
func TestChainRekeyEmptyDomainSkips(t *testing.T) {
	empty := &stubStage{name: "spf", out: StageOutcome{Action: StageRekey}}
	g, _ := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(empty))
	if v := g.Check(testTriplet); v.Decision != Defer || v.Reason != ReasonFirstSeen {
		t.Fatalf("verdict = %+v", v)
	}
	if s := g.Stats(); s.SPFRekeyed != 0 {
		t.Fatalf("SPFRekeyed = %d, want 0", s.SPFRekeyed)
	}
}

func TestSetChainNilRestoresDefault(t *testing.T) {
	g, _ := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain())
	g.SetChain(nil)
	g.Whitelist().AddRecipient(testTriplet.Recipient)
	if v := g.Check(testTriplet); v.Decision != Pass || v.Reason != ReasonWhitelisted {
		t.Fatalf("default chain lost the whitelist: %+v", v)
	}
}

func TestCheckTracedEmitsBypassEvent(t *testing.T) {
	g, _ := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(
		&stubStage{name: "spf"},
		&stubStage{name: "dnswl", out: StageOutcome{Action: StageBypass, Reason: ReasonDNSWL}},
	))
	tracer := trace.New(4)
	tr := tracer.StartAttempt(trace.Tags{}, testTriplet.Recipient, 0, nil)
	g.CheckTraced(testTriplet, tr)
	var got *trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KindBypass {
			e := e
			got = &e
		}
	}
	if got == nil {
		t.Fatal("no bypass event recorded")
	}
	if got.Name != "dnswl" || got.Detail != "bypass" {
		t.Fatalf("bypass event = %+v, want dnswl/bypass", got)
	}
	// Chain-negative checks add no bypass event.
	tr2 := tracer.StartAttempt(trace.Tags{}, testTriplet.Recipient, 0, nil)
	g.SetChain(NewChain(&stubStage{name: "spf"}))
	g.CheckTraced(testTriplet, tr2)
	for _, e := range tr2.Events() {
		if e.Kind == trace.KindBypass {
			t.Fatalf("chain-negative check recorded %+v", e)
		}
	}
}

func earnedPolicy(threshold time.Duration) Policy {
	p := DefaultPolicy()
	p.Threshold = threshold
	p.EarnedLifetime = 24 * time.Hour
	return p
}

// promote walks one triplet through the greylisting dance to promotion.
func promote(t *testing.T, g *Greylister, clock *simtime.Sim, tr Triplet) {
	t.Helper()
	if v := g.Check(tr); v.Decision != Defer {
		t.Fatalf("setup: first attempt = %+v", v)
	}
	clock.Advance(301 * time.Second)
	if v := g.Check(tr); v.Decision != Pass || v.Reason != ReasonRetryAccepted {
		t.Fatalf("setup: retry = %+v", v)
	}
}

func TestEarnedWhitelistGrantRenewExpire(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(earnedPolicy(300*time.Second), clock)
	promote(t, g, clock, testTriplet)
	if s := g.Stats(); s.EarnedGranted != 1 {
		t.Fatalf("EarnedGranted = %d, want 1", s.EarnedGranted)
	}
	if g.EarnedCount() != 1 {
		t.Fatalf("EarnedCount = %d, want 1", g.EarnedCount())
	}

	// A different sender/recipient from the same client now passes
	// outright — the client, not the triplet, earned the whitelist.
	other := Triplet{ClientIP: testTriplet.ClientIP, Sender: "x@y.example", Recipient: "z@foo.net"}
	if v := g.Check(other); v.Decision != Pass || v.Reason != ReasonEarnedWhitelist {
		t.Fatalf("earned check = %+v, want pass/earned-whitelist", v)
	}

	// Each use renews: three 20h gaps (each inside the 24h lifetime)
	// stretch way past the original grant.
	for i := 0; i < 3; i++ {
		clock.Advance(20 * time.Hour)
		if v := g.Check(other); v.Reason != ReasonEarnedWhitelist {
			t.Fatalf("renewal %d = %+v", i, v)
		}
	}

	// A gap longer than the lifetime expires it: back to the dance.
	clock.Advance(25 * time.Hour)
	if v := g.Check(other); v.Decision != Defer {
		t.Fatalf("post-expiry check = %+v, want defer", v)
	}
	if g.EarnedCount() != 0 {
		t.Fatalf("EarnedCount after expiry = %d", g.EarnedCount())
	}
	if s := g.Stats(); s.PassedEarned != 4 {
		t.Fatalf("PassedEarned = %d, want 4", s.PassedEarned)
	}
}

func TestEarnedExpiredByGC(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(earnedPolicy(300*time.Second), clock)
	promote(t, g, clock, testTriplet)
	clock.Advance(25 * time.Hour)
	g.GC()
	if g.EarnedCount() != 0 {
		t.Fatalf("EarnedCount after GC = %d, want 0", g.EarnedCount())
	}
}

func TestEarnedDisabledByDefault(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	promote(t, g, clock, testTriplet)
	if g.EarnedCount() != 0 {
		t.Fatalf("EarnedCount = %d with EarnedLifetime unset", g.EarnedCount())
	}
	other := Triplet{ClientIP: testTriplet.ClientIP, Sender: "x@y.example", Recipient: "z@foo.net"}
	if v := g.Check(other); v.Decision != Defer {
		t.Fatalf("check with earned disabled = %+v, want defer", v)
	}
}

// TestEarnedRekeyedDomain: with SPF keying in front, the earned
// whitelist is granted to the domain — any outbound IP cashes it in.
func TestEarnedRekeyedDomain(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(earnedPolicy(300*time.Second), clock)
	g.SetChain(NewChain(senderDomainRekey{}))
	promote(t, g, clock, Triplet{ClientIP: "192.0.2.10", Sender: "news@bulk.example", Recipient: "u@foo.net"})
	v := g.Check(Triplet{ClientIP: "203.0.113.80", Sender: "promo@bulk.example", Recipient: "other@foo.net"})
	if v.Decision != Pass || v.Reason != ReasonEarnedWhitelist {
		t.Fatalf("cross-IP earned check = %+v", v)
	}
}

func TestWALReplayEarned(t *testing.T) {
	dir := t.TempDir()
	log, ck := filepath.Join(dir, "wal.log"), filepath.Join(dir, "state")
	clock := simtime.NewSim(simtime.Epoch)

	g := New(earnedPolicy(300*time.Second), clock)
	w, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, g)
	if err != nil {
		t.Fatal(err)
	}
	promote(t, g, clock, testTriplet)
	other := Triplet{ClientIP: testTriplet.ClientIP, Sender: "x@y.example", Recipient: "z@foo.net"}
	clock.Advance(time.Hour)
	if v := g.Check(other); v.Reason != ReasonEarnedWhitelist {
		t.Fatalf("pre-crash earned check = %+v", v)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// The crash: copy the files out from under the running WAL (Close
	// would compact the log into the checkpoint, and this test is about
	// replaying the earned records themselves).
	cdir := t.TempDir()
	log2, ck2 := filepath.Join(cdir, "wal.log"), filepath.Join(cdir, "state")
	copyFile(t, log, log2)
	copyFile(t, ck, ck2)

	g2 := New(earnedPolicy(300*time.Second), clock)
	w2, info, err := OpenWAL(WALConfig{Path: log2, CheckpointPath: ck2, Sync: SyncNone, CompactBytes: -1}, g2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.ReplayedRecords == 0 {
		t.Fatal("no WAL records replayed")
	}
	if g2.EarnedCount() != 1 {
		t.Fatalf("EarnedCount after replay = %d, want 1", g2.EarnedCount())
	}
	// Replay must leave Stats frozen: grants replayed are not re-counted.
	if s := g2.Stats(); s.EarnedGranted != 0 || s.PassedEarned != 0 {
		t.Fatalf("replay moved stats: %+v", s)
	}
	// And the recovered entry still answers, renewed from the replayed
	// last-used stamp — 20h after the touch is inside the lifetime even
	// though it is >24h after the grant.
	clock.Advance(20 * time.Hour)
	if v := g2.Check(other); v.Reason != ReasonEarnedWhitelist {
		t.Fatalf("post-recovery earned check = %+v", v)
	}
}

func TestSnapshotEarnedRoundTrip(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(earnedPolicy(300*time.Second), clock)
	promote(t, g, clock, testTriplet)

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := New(earnedPolicy(300*time.Second), clock)
	if err := g2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.EarnedCount() != 1 {
		t.Fatalf("EarnedCount after load = %d, want 1", g2.EarnedCount())
	}
	other := Triplet{ClientIP: testTriplet.ClientIP, Sender: "x@y.example", Recipient: "z@foo.net"}
	if v := g2.Check(other); v.Reason != ReasonEarnedWhitelist {
		t.Fatalf("earned check after load = %+v", v)
	}
}

// TestSnapshotV1Accepted: a version-1 snapshot (written before the
// earned table existed) still loads — gob leaves the absent Earned map
// nil and the engine starts with no earned entries.
func TestSnapshotV1Accepted(t *testing.T) {
	old := &snapshot{Version: 1}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	g, _ := newTestGreylister(300 * time.Second)
	if err := g.Load(&buf); err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if g.EarnedCount() != 0 {
		t.Fatalf("EarnedCount = %d", g.EarnedCount())
	}
	// A future version is rejected, not misread.
	bad := &snapshot{Version: snapshotVersion + 1}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if err := g.Load(&buf); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}

// TestBatchMatchesSequential: CheckBatch with the chain enabled is
// verdict-for-verdict identical to sequential Check on an identical
// engine, mixed bypass/rekey/negative items included.
func TestBatchMatchesSequential(t *testing.T) {
	build := func() (*Greylister, *simtime.Sim) {
		clock := simtime.NewSim(simtime.Epoch)
		g := New(earnedPolicy(300*time.Second), clock)
		g.Whitelist().AddRecipient("postmaster@foo.net")
		g.SetChain(NewChain(WhitelistStage(g.Whitelist()), senderDomainRekey{}))
		return g, clock
	}
	trips := []Triplet{
		{ClientIP: "192.0.2.1", Sender: "a@one.example", Recipient: "u@foo.net"},
		{ClientIP: "192.0.2.2", Sender: "b@two.example", Recipient: "postmaster@foo.net"},
		{ClientIP: "192.0.2.3", Sender: "", Recipient: "u@foo.net"},
		{ClientIP: "192.0.2.4", Sender: "a@one.example", Recipient: "u@foo.net"},
		{ClientIP: "192.0.2.5", Sender: "c@three.example", Recipient: "v@foo.net"},
	}

	seq, seqClock := build()
	var want []Verdict
	for _, tr := range trips {
		want = append(want, seq.Check(tr))
	}
	seqClock.Advance(301 * time.Second)
	var want2 []Verdict
	for _, tr := range trips {
		want2 = append(want2, seq.Check(tr))
	}

	bat, batClock := build()
	got := bat.CheckBatch(trips, nil)
	batClock.Advance(301 * time.Second)
	got2 := bat.CheckBatch(trips, nil)

	for i := range trips {
		if got[i] != want[i] {
			t.Errorf("round 1 verdict %d: batch=%+v sequential=%+v", i, got[i], want[i])
		}
		if got2[i] != want2[i] {
			t.Errorf("round 2 verdict %d: batch=%+v sequential=%+v", i, got2[i], want2[i])
		}
	}
	ss, bs := seq.Stats(), bat.Stats()
	if ss != bs {
		t.Errorf("stats diverged: sequential=%+v batch=%+v", ss, bs)
	}
}
