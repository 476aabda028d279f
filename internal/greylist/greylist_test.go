package greylist

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

var testTriplet = Triplet{ClientIP: "203.0.113.9", Sender: "bot@spam.example", Recipient: "victim@foo.net"}

func newTestGreylister(threshold time.Duration) (*Greylister, *simtime.Sim) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.Threshold = threshold
	return New(p, clock), clock
}

func TestFirstAttemptDeferred(t *testing.T) {
	g, _ := newTestGreylister(300 * time.Second)
	v := g.Check(testTriplet)
	if v.Decision != Defer || v.Reason != ReasonFirstSeen {
		t.Fatalf("verdict = %+v, want defer/first-seen", v)
	}
	if v.WaitRemaining != 300*time.Second {
		t.Fatalf("WaitRemaining = %v, want 300s", v.WaitRemaining)
	}
	if v.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", v.Attempts)
	}
}

func TestEarlyRetryDeferredWithoutReset(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet)
	clock.Advance(100 * time.Second)
	v := g.Check(testTriplet)
	if v.Decision != Defer || v.Reason != ReasonTooSoon {
		t.Fatalf("verdict = %+v, want defer/too-soon", v)
	}
	if v.WaitRemaining != 200*time.Second {
		t.Fatalf("WaitRemaining = %v, want 200s (no first-seen reset)", v.WaitRemaining)
	}
	if v.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", v.Attempts)
	}
	// A third early retry still counts from the original first-seen.
	clock.Advance(100 * time.Second)
	v = g.Check(testTriplet)
	if v.WaitRemaining != 100*time.Second {
		t.Fatalf("WaitRemaining = %v, want 100s", v.WaitRemaining)
	}
}

func TestRetryAfterThresholdPasses(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet)
	clock.Advance(301 * time.Second)
	v := g.Check(testTriplet)
	if v.Decision != Pass || v.Reason != ReasonRetryAccepted {
		t.Fatalf("verdict = %+v, want pass/retry-accepted", v)
	}
	if v.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", v.Attempts)
	}
}

func TestRetryExactlyAtThresholdPasses(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet)
	clock.Advance(300 * time.Second)
	if v := g.Check(testTriplet); v.Decision != Pass {
		t.Fatalf("verdict at exact threshold = %+v, want pass", v)
	}
}

func TestKnownTripletPassesImmediately(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet)
	clock.Advance(301 * time.Second)
	g.Check(testTriplet)
	// Subsequent deliveries pass with no delay — this is how a second,
	// DIFFERENT spam message between the same triplet sails through
	// (Section V-A's control experiment).
	clock.Advance(time.Second)
	v := g.Check(testTriplet)
	if v.Decision != Pass || v.Reason != ReasonKnownTriplet {
		t.Fatalf("verdict = %+v, want pass/known-triplet", v)
	}
}

func TestDifferentTripletsIndependent(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet)
	clock.Advance(301 * time.Second)
	g.Check(testTriplet)

	other := testTriplet
	other.Recipient = "other@foo.net"
	if v := g.Check(other); v.Decision != Defer {
		t.Fatalf("different recipient not re-greylisted: %+v", v)
	}
	otherIP := testTriplet
	otherIP.ClientIP = "203.0.113.10"
	if v := g.Check(otherIP); v.Decision != Defer {
		t.Fatalf("different client IP not re-greylisted: %+v", v)
	}
	otherSender := testTriplet
	otherSender.Sender = "other@spam.example"
	if v := g.Check(otherSender); v.Decision != Defer {
		t.Fatalf("different sender not re-greylisted: %+v", v)
	}
}

func TestRetryWindowExpiry(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet)
	clock.Advance(49 * time.Hour) // past the 48h retry window
	v := g.Check(testTriplet)
	if v.Decision != Defer || v.Reason != ReasonWindowExpired {
		t.Fatalf("verdict = %+v, want defer/window-expired", v)
	}
	// The late retry restarts the clock: a prompt retry now passes.
	clock.Advance(301 * time.Second)
	if v := g.Check(testTriplet); v.Decision != Pass {
		t.Fatalf("retry after restart = %+v, want pass", v)
	}
}

func TestPassLifetimeExpiry(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	p := DefaultPolicy()
	p.Threshold = 300 * time.Second
	p.PassLifetime = time.Hour
	p.AutoWhitelistAfter = 0
	g = New(p, clock)

	g.Check(testTriplet)
	clock.Advance(301 * time.Second)
	g.Check(testTriplet) // passes, triplet whitelisted
	clock.Advance(2 * time.Hour)
	v := g.Check(testTriplet)
	if v.Decision != Defer {
		t.Fatalf("verdict after pass lifetime = %+v, want defer (record expired)", v)
	}
}

func TestAutoWhitelistClient(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.Threshold = 300 * time.Second
	p.AutoWhitelistAfter = 2
	g := New(p, clock)

	// Two successful deliveries from the same client, different triplets.
	for _, rcpt := range []string{"a@foo.net", "b@foo.net"} {
		tr := Triplet{ClientIP: "198.51.100.1", Sender: "mta@benign.example", Recipient: rcpt}
		g.Check(tr)
		clock.Advance(301 * time.Second)
		if v := g.Check(tr); v.Decision != Pass {
			t.Fatalf("setup delivery to %s failed: %+v", rcpt, v)
		}
	}
	// A brand-new triplet from that client now passes outright.
	v := g.Check(Triplet{ClientIP: "198.51.100.1", Sender: "mta@benign.example", Recipient: "c@foo.net"})
	if v.Decision != Pass || v.Reason != ReasonAutoWhitelisted {
		t.Fatalf("verdict = %+v, want pass/auto-whitelisted", v)
	}
}

func TestAutoWhitelistExpires(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.Threshold = 300 * time.Second
	p.AutoWhitelistAfter = 1
	p.AutoWhitelistLifetime = time.Hour
	g := New(p, clock)

	tr := Triplet{ClientIP: "198.51.100.2", Sender: "m@b.example", Recipient: "a@foo.net"}
	g.Check(tr)
	clock.Advance(301 * time.Second)
	g.Check(tr)
	clock.Advance(2 * time.Hour) // auto-whitelist entry goes stale
	v := g.Check(Triplet{ClientIP: "198.51.100.2", Sender: "m@b.example", Recipient: "new@foo.net"})
	if v.Reason == ReasonAutoWhitelisted {
		t.Fatalf("stale auto-whitelist still honored: %+v", v)
	}
}

func TestSubnetKeying(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.Threshold = 300 * time.Second
	p.SubnetKeying = true
	g := New(p, clock)

	// First attempt from .10, retry from .20 in the same /24 — the
	// webmail multi-IP pattern of Table III. With subnet keying the
	// retry is credited to the same record.
	first := Triplet{ClientIP: "66.163.1.10", Sender: "u@mail.example", Recipient: "v@foo.net"}
	second := Triplet{ClientIP: "66.163.1.20", Sender: "u@mail.example", Recipient: "v@foo.net"}
	g.Check(first)
	clock.Advance(301 * time.Second)
	if v := g.Check(second); v.Decision != Pass {
		t.Fatalf("same-/24 retry = %+v, want pass under subnet keying", v)
	}
}

func TestFullIPKeyingRejectsOtherIP(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	first := Triplet{ClientIP: "66.163.1.10", Sender: "u@mail.example", Recipient: "v@foo.net"}
	second := Triplet{ClientIP: "66.163.1.20", Sender: "u@mail.example", Recipient: "v@foo.net"}
	g.Check(first)
	clock.Advance(301 * time.Second)
	if v := g.Check(second); v.Decision != Defer {
		t.Fatalf("cross-IP retry = %+v, want defer under full-IP keying", v)
	}
}

func TestSubnetOf(t *testing.T) {
	if got := SubnetOf("66.163.1.10"); got != "66.163.1" {
		t.Errorf("SubnetOf = %q", got)
	}
	if got := SubnetOf("::1"); got != "::1" {
		t.Errorf("SubnetOf(v6) = %q", got)
	}
	if got := SubnetOf("bogus"); got != "bogus" {
		t.Errorf("SubnetOf(bogus) = %q", got)
	}
}

func TestGC(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	for i := byte(1); i <= 10; i++ {
		g.Check(Triplet{ClientIP: "10.0.0." + string('0'+i%10), Sender: "s@x.example", Recipient: "r@foo.net"})
	}
	if g.PendingCount() == 0 {
		t.Fatal("no pending records created")
	}
	clock.Advance(50 * time.Hour) // past retry window
	dropped := g.GC()
	if dropped == 0 || g.PendingCount() != 0 {
		t.Fatalf("GC dropped %d, pending %d", dropped, g.PendingCount())
	}
}

func TestStatsCounters(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	g.Check(testTriplet) // deferred-new
	clock.Advance(10 * time.Second)
	g.Check(testTriplet) // deferred-early
	clock.Advance(300 * time.Second)
	g.Check(testTriplet) // passed-retry
	g.Check(testTriplet) // passed-known
	s := g.Stats()
	if s.Checks != 4 || s.DeferredNew != 1 || s.DeferredEarly != 1 || s.PassedRetry != 1 || s.PassedKnown != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDecisionReasonStrings(t *testing.T) {
	if Defer.String() != "defer" || Pass.String() != "pass" || Decision(9).String() == "" {
		t.Error("Decision.String broken")
	}
	for r := ReasonFirstSeen; r <= ReasonWindowExpired; r++ {
		if r.String() == "" {
			t.Errorf("Reason %d has empty string", r)
		}
	}
	if testTriplet.String() == "" {
		t.Error("Triplet.String empty")
	}
}

// Property: for any threshold and any retry delay, the verdict is Pass iff
// the delay is >= threshold (within the retry window, no whitelists).
func TestThresholdBoundaryProperty(t *testing.T) {
	f := func(thresholdSec, delaySec uint16) bool {
		clock := simtime.NewSim(simtime.Epoch)
		p := Policy{
			Threshold:   time.Duration(thresholdSec) * time.Second,
			RetryWindow: 1000 * time.Hour,
		}
		g := New(p, clock)
		g.Check(testTriplet)
		clock.Advance(time.Duration(delaySec) * time.Second)
		v := g.Check(testTriplet)
		wantPass := time.Duration(delaySec)*time.Second >= p.Threshold
		return (v.Decision == Pass) == wantPass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fire-and-forget sender (single attempt per DISTINCT triplet)
// never gets anything delivered, for any positive threshold. Note that the
// triplets must be distinct: re-sending to the same triplet later is
// indistinguishable from a retry and eventually passes — the accidental
// self-whitelisting side effect Section II describes.
func TestFireAndForgetAlwaysBlockedProperty(t *testing.T) {
	f := func(thresholdSec uint16, nRecipients uint8) bool {
		clock := simtime.NewSim(simtime.Epoch)
		p := Policy{Threshold: time.Duration(thresholdSec%3600+1) * time.Second, RetryWindow: 48 * time.Hour}
		g := New(p, clock)
		for i := 0; i < int(nRecipients); i++ {
			tr := Triplet{ClientIP: "203.0.113.50", Sender: "bot@spam.example",
				Recipient: fmt.Sprintf("user%d@foo.net", i)}
			if v := g.Check(tr); v.Decision == Pass {
				return false
			}
			clock.Advance(time.Second)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// And the complementary behaviour: re-sending to the SAME triplet after the
// threshold is exactly how a spammer self-whitelists by volume.
func TestSameTripletResendEventuallyPasses(t *testing.T) {
	g, clock := newTestGreylister(300 * time.Second)
	if v := g.Check(testTriplet); v.Decision != Defer {
		t.Fatalf("first = %+v", v)
	}
	clock.Advance(10 * time.Minute) // bot master issues a new job later
	if v := g.Check(testTriplet); v.Decision != Pass {
		t.Fatalf("second campaign to same triplet = %+v, want pass (accidental whitelisting)", v)
	}
}

func TestConcurrentChecks(t *testing.T) {
	g, _ := newTestGreylister(300 * time.Second)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				g.Check(Triplet{
					ClientIP:  "10.0.0.1",
					Sender:    "s@x.example",
					Recipient: string(rune('a'+i)) + "@foo.net",
				})
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := g.Stats().Checks; got != 800 {
		t.Fatalf("checks = %d, want 800", got)
	}
}

// TestCheckBatchNoAllocs pins a pipelined RCPT burst at 0 allocs/op on
// the two serving-path cases: known-passed triplets, decided under the
// read lock, and chain-negative ones (the whitelist stage misses and
// the too-soon retry takes the write lock). The verdict slice is
// reused, as callers do.
func TestCheckBatchNoAllocs(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.AutoWhitelistAfter = 0 // keep each burst on its own path
	g := New(p, clock)
	burst := func(clientIP string) []Triplet {
		ts := make([]Triplet, 16)
		for i := range ts {
			ts[i] = Triplet{ClientIP: clientIP, Sender: "s@x.example", Recipient: fmt.Sprintf("u%d@foo.net", i)}
		}
		return ts
	}
	passed, pending := burst("203.0.113.9"), burst("198.51.100.7")
	out := g.CheckBatch(passed, nil)
	clock.Advance(301 * time.Second)
	out = g.CheckBatch(passed, out)
	out = g.CheckBatch(pending, out)

	for _, c := range []struct {
		name   string
		ts     []Triplet
		reason Reason
	}{
		{"known-passed", passed, ReasonKnownTriplet},
		{"chain-negative", pending, ReasonTooSoon},
	} {
		if allocs := testing.AllocsPerRun(200, func() { out = g.CheckBatch(c.ts, out) }); allocs != 0 {
			t.Errorf("%s CheckBatch = %v allocs/op, want 0", c.name, allocs)
		}
		for i, v := range out {
			if v.Reason != c.reason {
				t.Fatalf("%s verdict %d = %+v, want %s", c.name, i, v, c.reason)
			}
		}
	}
}
