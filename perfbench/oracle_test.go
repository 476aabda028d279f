package main

import (
	"testing"
	"time"

	"repro/internal/greylist"
	"repro/internal/simtime"
)

func testFacts() *chainFacts {
	c := newChainFacts()
	c.spf["pool.example"] = map[string]bool{"127.2.0.1": true, "127.2.0.2": true}
	c.dnswl["127.1.0.3"] = true
	c.mail["127.1.0.4"] = "smtp1.corp.example"
	c.mail["127.1.0.5"] = "c-127-1-0-5.dyn.isp.example"
	return c
}

// TestModelHandBuiltSchedule walks the reference model through a
// schedule whose every verdict is known by hand.
func TestModelHandBuiltSchedule(t *testing.T) {
	m := newModel(5, testFacts())
	steps := []struct {
		ip, sender, rcpt string
		want             rcptExp
	}{
		// Plain client: first contact, retry, known.
		{"127.1.0.1", "a@x.example", "u1@d", rcptExp{false, "first-seen", "", true}},
		{"127.1.0.1", "a@x.example", "u1@d", rcptExp{true, "retry-accepted", "", true}},
		{"127.1.0.1", "a@x.example", "u1@d", rcptExp{true, "known-triplet", "", true}},
		{"127.1.0.1", "a@x.example", "u1@d", rcptExp{true, "known-triplet", "", true}},
		{"127.1.0.1", "a@x.example", "u1@d", rcptExp{true, "known-triplet", "", true}},
		{"127.1.0.1", "a@x.example", "u1@d", rcptExp{true, "known-triplet", "", true}},
		// Five deliveries: any new triplet from the client now passes.
		{"127.1.0.1", "b@y.example", "u9@d", rcptExp{true, "auto-whitelisted", "", true}},
		// SPF rekey: a pool's second IP continues the first one's dance.
		{"127.2.0.1", "s@pool.example", "u2@d", rcptExp{false, "first-seen", "spf", true}},
		{"127.2.0.2", "s@pool.example", "u2@d", rcptExp{true, "retry-accepted", "spf", true}},
		// An unauthorized IP for the same domain is keyed by IP.
		{"127.2.0.9", "s@pool.example", "u2@d", rcptExp{false, "first-seen", "", true}},
		// Chain bypasses journal nothing.
		{"127.1.0.3", "w@z.example", "u3@d", rcptExp{true, "dnswl-listed", "dnswl", false}},
		{"127.1.0.4", "r@z.example", "u3@d", rcptExp{true, "rdns-mailserver", "rdns", false}},
		// A dynamic-pool PTR name is greylisted.
		{"127.1.0.5", "d@z.example", "u3@d", rcptExp{false, "first-seen", "", true}},
	}
	for i, s := range steps {
		got := m.check(s.ip, s.sender, domainOf(s.sender), s.rcpt, false)
		if got != s.want {
			t.Fatalf("step %d (%s %s %s): got %+v, want %+v", i, s.ip, s.sender, s.rcpt, got, s.want)
		}
	}
}

func domainOf(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == '@' {
			return addr[i+1:]
		}
	}
	return ""
}

// stubStage answers like the DNS-backed stage of the same name would
// for the fixture zone the facts describe.
type stubStage struct {
	name  string
	facts *chainFacts
}

func (s stubStage) Name() string { return s.name }

func (s stubStage) Eval(t greylist.Triplet) (greylist.StageOutcome, error) {
	d := domainOf(t.Sender)
	switch s.name {
	case "spf":
		if s.facts.spf[d][t.ClientIP] {
			return greylist.StageOutcome{Action: greylist.StageRekey, Domain: d}, nil
		}
	case "dnswl":
		if s.facts.dnswl[t.ClientIP] {
			return greylist.StageOutcome{Action: greylist.StageBypass, Reason: greylist.ReasonDNSWL}, nil
		}
	case "rdns":
		if name, ok := s.facts.mail[t.ClientIP]; ok && looksLikeMailServer(name) {
			return greylist.StageOutcome{Action: greylist.StageBypass, Reason: greylist.ReasonRDNS}, nil
		}
	}
	return greylist.StageOutcome{}, nil
}

// TestModelMatchesEngine runs the campaign's relays and bots through the
// real engine (batched, as greylistd decides pipelined RCPTs) and the
// model side by side; every verdict must agree.
func TestModelMatchesEngine(t *testing.T) {
	w, err := buildWorkload("campaign", 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.NewSim(simtime.Epoch)
	g := greylist.New(daemonPolicy(), clock)
	g.SetChain(greylist.NewChain(greylist.WhitelistStage(g.Whitelist()),
		stubStage{"spf", w.chain}, stubStage{"dnswl", w.chain}, stubStage{"rdns", w.chain}))
	reasons := map[greylist.Reason]string{
		greylist.ReasonFirstSeen: "first-seen", greylist.ReasonRetryAccepted: "retry-accepted",
		greylist.ReasonKnownTriplet: "known-triplet", greylist.ReasonAutoWhitelisted: "auto-whitelisted",
		greylist.ReasonDNSWL: "dnswl-listed", greylist.ReasonRDNS: "rdns-mailserver",
	}
	var ts []greylist.Triplet
	run := func(lane int, v *visit) {
		for _, tx := range v.txns {
			w.models[lane].decide(v.ip, tx)
			ts = ts[:0]
			for _, r := range tx.rcpts {
				ts = append(ts, greylist.Triplet{ClientIP: v.ip, Sender: tx.sender, Recipient: r})
			}
			for i, got := range g.CheckBatch(ts, nil) {
				want := tx.exp[i]
				if (got.Decision == greylist.Pass) != want.pass || reasons[got.Reason] != want.reason {
					t.Fatalf("%s %s %s: engine %v/%v, model %+v", v.ip, tx.sender, tx.rcpts[i], got.Decision, got.Reason, want)
				}
			}
		}
	}
	for round := 0; round < 12; round++ {
		for lane := 0; lane < 2; lane++ {
			for _, a := range w.actors[lane] {
				v := a.nextVisit()
				run(lane, v)
				a.finished(v, clock.Now())
			}
			for i := 0; i < 20; i++ {
				run(lane, w.streams[lane].next())
			}
		}
		clock.Advance(threshold + retryMargin)
	}
}

// TestActorRetriesOnlyDeferred checks that a relay's next visit after
// deferrals resends exactly the deferred recipients, no sooner than the
// threshold after the replies were read.
func TestActorRetriesOnlyDeferred(t *testing.T) {
	w, err := buildWorkload("campaign", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	var a *actor
	for _, x := range w.actors[0] {
		if x.kind == relayPlain {
			a = x
			break
		}
	}
	v := a.nextVisit()
	want := 0
	for _, tx := range v.txns {
		w.models[0].decide(v.ip, tx)
		want += len(tx.rcpts)
	}
	now := time.Unix(1000, 0)
	a.finished(v, now)
	if a.ready.Before(now.Add(threshold)) {
		t.Fatalf("retry ready at %v, before the threshold", a.ready.Sub(now))
	}
	r := a.nextVisit()
	got := 0
	for _, tx := range r.txns {
		w.models[0].decide(r.ip, tx)
		for _, e := range tx.exp {
			// A retry that lifts the relay to five deliveries makes
			// the rest of the visit pass as auto-whitelisted.
			if !e.pass || e.reason != "retry-accepted" && e.reason != "auto-whitelisted" {
				t.Fatalf("retry verdict %+v", e)
			}
		}
		got += len(tx.rcpts)
	}
	if got != want {
		t.Fatalf("retried %d recipients, first contact deferred %d", got, want)
	}
}
