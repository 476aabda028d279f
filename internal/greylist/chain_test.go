package greylist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
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

// EnvelopeScoped: the rekey reads only the sender, so CheckBatch
// memoizes it along a run and the reference model covers the memo.
func (senderDomainRekey) EnvelopeScoped() {}

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
// engine, mixed bypass/rekey/negative items included. The traced twins
// (CheckBatchTraced vs CheckTraced into a session trace) give the same
// verdicts and record the same bypass and greylist events, timestamps
// aside.
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
	tracer := trace.New(8)

	for _, traced := range []bool{false, true} {
		var seqTr, batTr *trace.Trace
		if traced {
			// Unbounded session traces: the comparison must see every
			// event, and these would outgrow nothing anyway.
			seqTr = tracer.StartSession(trace.Tags{}, "seq", nil)
			batTr = tracer.StartSession(trace.Tags{}, "batch", nil)
		}
		seq, seqClock := build()
		var want []Verdict
		for _, tr := range trips {
			want = append(want, seq.CheckTraced(tr, seqTr))
		}
		seqClock.Advance(301 * time.Second)
		var want2 []Verdict
		for _, tr := range trips {
			want2 = append(want2, seq.CheckTraced(tr, seqTr))
		}

		bat, batClock := build()
		got := bat.CheckBatchTraced(trips, nil, batTr)
		batClock.Advance(301 * time.Second)
		got2 := bat.CheckBatchTraced(trips, nil, batTr)

		for i := range trips {
			if got[i] != want[i] {
				t.Errorf("traced=%v round 1 verdict %d: batch=%+v sequential=%+v", traced, i, got[i], want[i])
			}
			if got2[i] != want2[i] {
				t.Errorf("traced=%v round 2 verdict %d: batch=%+v sequential=%+v", traced, i, got2[i], want2[i])
			}
		}
		ss, bs := seq.Stats(), bat.Stats()
		if ss != bs {
			t.Errorf("traced=%v stats diverged: sequential=%+v batch=%+v", traced, ss, bs)
		}
		if !traced {
			continue
		}
		seqTr.Finish("done")
		batTr.Finish("done")
		for _, kind := range []trace.Kind{trace.KindGreylist, trace.KindBypass} {
			se, be := eventsOf(seqTr, kind), eventsOf(batTr, kind)
			if len(se) == 0 || len(se) != len(be) {
				t.Fatalf("%v events: sequential %d, batch %d", kind, len(se), len(be))
			}
			for i := range se {
				if se[i] != be[i] {
					t.Errorf("%v event %d: sequential %+v, batch %+v", kind, i, se[i], be[i])
				}
			}
		}
	}
}

// eventsOf returns tr's events of one kind with timestamps zeroed.
func eventsOf(tr *trace.Trace, kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == kind {
			e.At = time.Time{}
			out = append(out, e)
		}
	}
	return out
}

// envelopeStub is a stubStage declared envelope-scoped.
type envelopeStub struct{ stubStage }

func (*envelopeStub) EnvelopeScoped() {}

// TestBatchEnvelopeStageOncePerRun: CheckBatch runs an envelope-scoped
// stage once per run of consecutive attempts sharing (ClientIP, Sender)
// and a per-triplet stage ahead of it once per attempt, yet counts the
// reused answer for every attempt it decides.
func TestBatchEnvelopeStageOncePerRun(t *testing.T) {
	a := Triplet{ClientIP: "192.0.2.1", Sender: "a@x.example"}
	b := Triplet{ClientIP: "192.0.2.2", Sender: "a@x.example"}
	c := Triplet{ClientIP: "192.0.2.1", Sender: "c@x.example"}
	for _, tc := range []struct {
		name string
		envs []Triplet
		runs int
	}{
		{"one envelope", []Triplet{a, a, a, a, a, a, a, a, a, a, a, a, a, a, a, a}, 1},
		{"A A B B A", []Triplet{a, a, b, b, a}, 3},
		{"same client, other sender", []Triplet{a, a, c}, 2},
	} {
		per := &stubStage{name: "per"}
		env := &envelopeStub{stubStage{name: "dnswl", out: StageOutcome{Action: StageBypass, Reason: ReasonDNSWL}}}
		g, _ := newTestGreylister(300 * time.Second)
		g.SetChain(NewChain(per, env))
		ts := make([]Triplet, len(tc.envs))
		for i, e := range tc.envs {
			ts[i] = e
			ts[i].Recipient = fmt.Sprintf("u%d@foo.net", i)
		}
		for i, v := range g.CheckBatch(ts, nil) {
			if v.Decision != Pass || v.Reason != ReasonDNSWL {
				t.Fatalf("%s: verdict %d = %+v, want pass/dnswl-listed", tc.name, i, v)
			}
		}
		if env.calls != tc.runs || per.calls != len(ts) {
			t.Errorf("%s: envelope stage ran %d times, per-triplet stage %d; want %d and %d",
				tc.name, env.calls, per.calls, tc.runs, len(ts))
		}
		if st := g.Chain().StageStats(); st[1].Hits != uint64(len(ts)) {
			t.Errorf("%s: envelope stage hits = %d, want %d (one per attempt)", tc.name, st[1].Hits, len(ts))
		}
		if s := g.Stats(); s.PassedDNSWL != uint64(len(ts)) || s.Checks != uint64(len(ts)) {
			t.Errorf("%s: Stats = %+v, want %d DNSWL passes and checks", tc.name, s, len(ts))
		}
	}
}

// TestBatchEnvelopeMemoSkipsDecidedAttempts: an attempt an earlier
// per-triplet stage bypasses neither fills nor reads the envelope
// stage's memo, so it is not counted against that stage.
func TestBatchEnvelopeMemoSkipsDecidedAttempts(t *testing.T) {
	g, _ := newTestGreylister(300 * time.Second)
	g.Whitelist().AddRecipient("postmaster@foo.net")
	env := &envelopeStub{stubStage{name: "dnswl", out: StageOutcome{Action: StageBypass, Reason: ReasonDNSWL}}}
	g.SetChain(NewChain(WhitelistStage(g.Whitelist()), env))
	ts := []Triplet{
		{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "postmaster@foo.net"},
		{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "u@foo.net"},
		{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "v@foo.net"},
	}
	vs := g.CheckBatch(ts, nil)
	if vs[0].Reason != ReasonWhitelisted || vs[1].Reason != ReasonDNSWL || vs[2].Reason != ReasonDNSWL {
		t.Fatalf("verdicts = %+v", vs)
	}
	if env.calls != 1 {
		t.Errorf("envelope stage ran %d times, want 1", env.calls)
	}
	if st := g.Chain().StageStats(); st[0].Hits != 1 || st[1].Hits != 2 {
		t.Errorf("stage stats = %+v, want whitelist 1 hit, dnswl 2", st)
	}
}

// TestBatchEnvelopeStageErrorOncePerRun: an erroring envelope stage is
// asked once per run, and its error is counted for every attempt of the
// run, each of which fails open to the triplet check.
func TestBatchEnvelopeStageErrorOncePerRun(t *testing.T) {
	bad := &envelopeStub{stubStage{name: "rdns", err: errors.New("resolver down")}}
	g, _ := newTestGreylister(300 * time.Second)
	g.SetChain(NewChain(WhitelistStage(g.Whitelist()), bad))
	var ts []Triplet
	for i, ip := range []string{"192.0.2.1", "192.0.2.1", "192.0.2.2", "192.0.2.2", "192.0.2.1"} {
		ts = append(ts, Triplet{ClientIP: ip, Sender: "a@x.example", Recipient: fmt.Sprintf("u%d@foo.net", i)})
	}
	for i, v := range g.CheckBatch(ts, nil) {
		if v.Decision != Defer || v.Reason != ReasonFirstSeen {
			t.Fatalf("verdict %d = %+v, want defer/first-seen", i, v)
		}
	}
	if bad.calls != 3 {
		t.Errorf("erroring stage ran %d times, want 3 (one per run)", bad.calls)
	}
	if st := g.Chain().StageStats(); st[1].Errors != uint64(len(ts)) {
		t.Errorf("errors = %d, want %d (one per attempt)", st[1].Errors, len(ts))
	}
}

// funcStage is a stateless stage answering eval; envFuncStage is the
// same declared envelope-scoped.
type funcStage struct {
	name string
	eval func(Triplet) (StageOutcome, error)
}

func (s funcStage) Name() string                         { return s.name }
func (s funcStage) Eval(t Triplet) (StageOutcome, error) { return s.eval(t) }

type envFuncStage struct{ funcStage }

func (envFuncStage) EnvelopeScoped() {}

// checkBatchPerRCPT is checkBatch evaluating the whole chain for every
// attempt, with no envelope memo: the reference for
// TestBatchMemoMatchesPerRCPT.
func checkBatchPerRCPT(g *Greylister, ts []Triplet, tr *trace.Trace) []Verdict {
	out := make([]Verdict, len(ts))
	g.stats.checks.Add(uint64(len(ts)))
	now := g.clock.Now()
	ch := g.chain.Load()
	var rekeys []string
	for i, t := range ts {
		o, idx := ch.eval(t, nil)
		if tr != nil && idx >= 0 {
			tr.Bypass(now, ch.StageName(idx), o.Action.String())
		}
		switch o.Action {
		case StageBypass:
			g.countBypass(o.Reason)
			out[i] = Verdict{Decision: Pass, Reason: o.Reason}
		case StageRekey:
			g.stats.spfRekeyed.Add(1)
			if rekeys == nil {
				rekeys = make([]string, len(ts))
			}
			rekeys[i] = o.Domain
		}
	}
	out = g.storeBatch(ts, rekeys, out, now)
	if tr != nil {
		for i := range ts {
			traceVerdict(tr, now, ts[i], out[i])
		}
	}
	return out
}

// TestBatchMemoMatchesPerRCPT: random batches of envelope runs, some
// envelopes recurring, go through CheckBatchTraced and through the
// per-attempt reference on twin engines. The chain mixes the recipient
// whitelist, a per-triplet bypass stage between two envelope-scoped
// stages, and envelope stages that rekey, bypass and error. Verdicts,
// Stats, stage counters and the traces' events must be identical.
func TestBatchMemoMatchesPerRCPT(t *testing.T) {
	const vip = "vip@foo.net"
	spfish := envFuncStage{funcStage{"spf", func(t Triplet) (StageOutcome, error) {
		switch {
		case strings.HasSuffix(t.ClientIP, ".1"):
			return StageOutcome{}, errors.New("spf temperror")
		case strings.HasSuffix(t.Sender, "@rekey.example"):
			return StageOutcome{Action: StageRekey, Domain: "rekey.example"}, nil
		}
		return StageOutcome{}, nil
	}}}
	vipStage := funcStage{"vip", func(t Triplet) (StageOutcome, error) {
		if t.Recipient == vip {
			return StageOutcome{Action: StageBypass, Reason: Reason(99)}, nil
		}
		return StageOutcome{}, nil
	}}
	dnswlish := envFuncStage{funcStage{"dnswl", func(t Triplet) (StageOutcome, error) {
		switch {
		case strings.HasSuffix(t.ClientIP, ".2"):
			return StageOutcome{Action: StageBypass, Reason: ReasonDNSWL}, nil
		case strings.HasSuffix(t.ClientIP, ".3"):
			return StageOutcome{}, errors.New("dnswl timeout")
		}
		return StageOutcome{}, nil
	}}}
	build := func() (*Greylister, *simtime.Sim) {
		clock := simtime.NewSim(simtime.Epoch)
		g := New(earnedPolicy(300*time.Second), clock)
		g.Whitelist().AddRecipient("postmaster@foo.net")
		g.SetChain(NewChain(WhitelistStage(g.Whitelist()), spfish, vipStage, dnswlish))
		return g, clock
	}
	memo, memoClock := build()
	ref, refClock := build()
	tracer := trace.New(4)

	clients := []string{"192.0.2.1", "192.0.2.2", "192.0.2.3", "192.0.2.4", "198.51.100.4"}
	senders := []string{"a@rekey.example", "b@plain.example", "B@Plain.example", ""}
	rcpts := []string{"u@foo.net", "v@foo.net", vip, "postmaster@foo.net", "w@foo.net"}
	rng := rand.New(rand.NewSource(1))
	for batch := 0; batch < 300; batch++ {
		var ts []Triplet
		for runs := 1 + rng.Intn(4); runs > 0; runs-- {
			env := Triplet{ClientIP: clients[rng.Intn(len(clients))], Sender: senders[rng.Intn(len(senders))]}
			if len(ts) > 0 && rng.Intn(3) == 0 {
				env = ts[rng.Intn(len(ts))] // an earlier envelope again
			}
			for n := 1 + rng.Intn(5); n > 0; n-- {
				env.Recipient = rcpts[rng.Intn(len(rcpts))]
				ts = append(ts, env)
			}
		}
		memoTr := tracer.StartSession(trace.Tags{}, "memo", nil)
		refTr := tracer.StartSession(trace.Tags{}, "ref", nil)
		got := memo.CheckBatchTraced(ts, nil, memoTr)
		want := checkBatchPerRCPT(ref, ts, refTr)
		memoTr.Finish("done")
		refTr.Finish("done")
		for i := range ts {
			if got[i] != want[i] {
				t.Fatalf("batch %d, attempt %d %v: memo %+v, per-RCPT %+v", batch, i, ts[i], got[i], want[i])
			}
		}
		if g, w := memo.Stats(), ref.Stats(); g != w {
			t.Fatalf("batch %d: Stats memo %+v, per-RCPT %+v", batch, g, w)
		}
		gs, ws := memo.Chain().StageStats(), ref.Chain().StageStats()
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("batch %d: stage stats memo %+v, per-RCPT %+v", batch, gs, ws)
			}
		}
		for _, kind := range []trace.Kind{trace.KindBypass, trace.KindGreylist} {
			ge, we := eventsOf(memoTr, kind), eventsOf(refTr, kind)
			if len(ge) != len(we) {
				t.Fatalf("batch %d: %v events memo %d, per-RCPT %d", batch, kind, len(ge), len(we))
			}
			for i := range we {
				if ge[i] != we[i] {
					t.Fatalf("batch %d: %v event %d memo %+v, per-RCPT %+v", batch, kind, i, ge[i], we[i])
				}
			}
		}
		if rng.Intn(3) == 0 {
			memoClock.Advance(301 * time.Second)
			refClock.Advance(301 * time.Second)
		}
	}
	st := memo.Chain().StageStats()
	if st[1].Errors == 0 || st[1].Rekeys == 0 || st[2].Hits == 0 || st[3].Hits == 0 || st[3].Errors == 0 {
		t.Fatalf("the batches left an outcome unexercised: %+v", st)
	}
}
