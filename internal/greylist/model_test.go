package greylist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

// refModel is the greylisting policy stated once, as plainly as it can
// be: Postgrey's triplet dance (threshold, retry window, pass lifetime),
// the client auto-whitelist after N deliveries with its lifetime, the
// earned whitelist renewed on use, and GC, over plain maps with no locks
// and no fast path. The engine must agree with it verdict for verdict,
// counter for counter and entry for entry.
type refModel struct {
	p       Policy
	rekey   bool // the chain rekeys by sender domain (senderDomainRekey)
	pending map[string]refPending
	passed  map[string]refPassed
	clients map[string]refClient
	earned  map[string]refEarned
	stats   Stats
	// ckStats are the counters as of the last WAL checkpoint: log
	// replay restores tables, not counters.
	ckStats Stats
}

type refPending struct {
	first, last int64
	attempts    int
}

type refPassed struct{ at, used, n int64 }

type refClient struct{ n, used int64 }

type refEarned struct{ at, used, n int64 }

// modelWhitelisted is the recipient the model's static whitelist holds.
const modelWhitelisted = "postmaster@foo.example"

func newRefModel(p Policy) *refModel {
	return &refModel{
		p:       p,
		pending: make(map[string]refPending),
		passed:  make(map[string]refPassed),
		clients: make(map[string]refClient),
		earned:  make(map[string]refEarned),
	}
}

// route runs the model's chain: the static whitelist, then, when
// rekeying is on, the sender-domain rekey. It reports a bypass, or the
// client and triplet keys the check runs under.
func (m *refModel) route(t Triplet) (bypass bool, ck, key string) {
	if t.Recipient == modelWhitelisted {
		m.stats.PassedWhitelist++
		return true, "", ""
	}
	switch at := strings.LastIndexByte(t.Sender, '@'); {
	case m.rekey && at >= 0 && at < len(t.Sender)-1:
		m.stats.SPFRekeyed++
		ck = "spf:" + strings.ToLower(t.Sender[at+1:])
	case m.p.SubnetKeying:
		ck = SubnetOf(t.ClientIP)
	default:
		ck = t.ClientIP
	}
	return false, ck, ck + "\x00" + strings.ToLower(t.Sender) + "\x00" + strings.ToLower(t.Recipient)
}

func (m *refModel) check(t Triplet, now int64) Verdict {
	m.stats.Checks++
	bypass, ck, key := m.route(t)
	if bypass {
		return Verdict{Decision: Pass, Reason: ReasonWhitelisted}
	}
	v, _ := m.decide(ck, key, now, false)
	return v
}

// checkBatch decides a batch as the engine does: first every attempt
// the read-only path can decide, in order, then the rest, in order.
func (m *refModel) checkBatch(ts []Triplet, now int64) []Verdict {
	out := make([]Verdict, len(ts))
	cks, keys := make([]string, len(ts)), make([]string, len(ts))
	m.stats.Checks += uint64(len(ts))
	for i, t := range ts {
		var bypass bool
		if bypass, cks[i], keys[i] = m.route(t); bypass {
			out[i] = Verdict{Decision: Pass, Reason: ReasonWhitelisted}
		}
	}
	for _, fast := range []bool{true, false} {
		for i := range ts {
			if out[i].Decision == 0 {
				out[i], _ = m.decide(cks[i], keys[i], now, fast)
			}
		}
	}
	return out
}

// decide is the triplet check at now. With fast set it decides only
// what needs no insert or delete (a live earned grant, an
// auto-whitelisted client, a live passed triplet whose client already
// has a record), and otherwise reports false having changed nothing.
func (m *refModel) decide(ck, key string, now int64, fast bool) (Verdict, bool) {
	p := m.p
	if p.EarnedLifetime > 0 {
		if e, ok := m.earned[ck]; ok {
			if now-e.used > int64(p.EarnedLifetime) {
				if fast {
					return Verdict{}, false
				}
				delete(m.earned, ck)
			} else {
				e.used, e.n = now, e.n+1
				m.earned[ck] = e
				m.stats.PassedEarned++
				return Verdict{Decision: Pass, Reason: ReasonEarnedWhitelist, FirstSeen: time.Unix(0, e.at)}, true
			}
		}
	}
	if p.AutoWhitelistAfter > 0 {
		if c, ok := m.clients[ck]; ok {
			if p.AutoWhitelistLifetime > 0 && now-c.used > int64(p.AutoWhitelistLifetime) {
				if fast {
					return Verdict{}, false
				}
				delete(m.clients, ck)
			} else if c.n >= int64(p.AutoWhitelistAfter) {
				c.used = now
				m.clients[ck] = c
				m.stats.PassedAutoClient++
				return Verdict{Decision: Pass, Reason: ReasonAutoWhitelisted}, true
			}
		}
	}
	if w, ok := m.passed[key]; ok {
		_, credited := m.clients[ck]
		switch {
		case p.PassLifetime > 0 && now-w.used > int64(p.PassLifetime):
			if fast {
				return Verdict{}, false
			}
			delete(m.passed, key)
		case fast && p.AutoWhitelistAfter > 0 && !credited:
			return Verdict{}, false
		default:
			w.used, w.n = now, w.n+1
			m.passed[key] = w
			m.credit(ck, now)
			m.stats.PassedKnown++
			return Verdict{Decision: Pass, Reason: ReasonKnownTriplet, FirstSeen: time.Unix(0, w.at), Attempts: int(w.n)}, true
		}
	}
	if fast {
		return Verdict{}, false
	}

	r, known := m.pending[key]
	if !known || (p.RetryWindow > 0 && now-r.first > int64(p.RetryWindow)) {
		m.pending[key] = refPending{first: now, last: now, attempts: 1}
		reason := ReasonFirstSeen
		if known {
			reason = ReasonWindowExpired
			m.stats.DeferredExpired++
		} else {
			m.stats.DeferredNew++
			m.stats.TripletsRecorded++
		}
		return Verdict{Decision: Defer, Reason: reason, WaitRemaining: p.Threshold, FirstSeen: time.Unix(0, now), Attempts: 1}, true
	}
	r.attempts++
	r.last = now
	waited := time.Duration(now - r.first)
	if waited < p.Threshold {
		m.pending[key] = r
		m.stats.DeferredEarly++
		return Verdict{Decision: Defer, Reason: ReasonTooSoon, WaitRemaining: p.Threshold - waited,
			FirstSeen: time.Unix(0, r.first), Attempts: r.attempts}, true
	}
	delete(m.pending, key)
	m.passed[key] = refPassed{at: now, used: now, n: 1}
	m.credit(ck, now)
	if p.EarnedLifetime > 0 {
		e, ok := m.earned[ck]
		if !ok {
			e.at = now
			m.stats.EarnedGranted++
		}
		e.used = now
		m.earned[ck] = e
	}
	m.stats.PassedRetry++
	m.stats.TripletsWhitelist++
	return Verdict{Decision: Pass, Reason: ReasonRetryAccepted, FirstSeen: time.Unix(0, r.first),
		Attempts: r.attempts, Waited: waited}, true
}

// credit counts a delivery toward the client's auto-whitelist.
func (m *refModel) credit(ck string, now int64) {
	if m.p.AutoWhitelistAfter > 0 {
		c := m.clients[ck]
		c.n, c.used = c.n+1, now
		m.clients[ck] = c
	}
}

func (m *refModel) gc(now int64) {
	p := m.p
	dropped := 0
	for k, r := range m.pending {
		if p.RetryWindow > 0 && now-r.first > int64(p.RetryWindow) {
			delete(m.pending, k)
			dropped++
		}
	}
	for k, r := range m.passed {
		if p.PassLifetime > 0 && now-r.used > int64(p.PassLifetime) {
			delete(m.passed, k)
			dropped++
		}
	}
	for k, r := range m.clients {
		if p.AutoWhitelistLifetime > 0 && now-r.used > int64(p.AutoWhitelistLifetime) {
			delete(m.clients, k)
			dropped++
		}
	}
	for k, r := range m.earned {
		if p.EarnedLifetime > 0 && now-r.used > int64(p.EarnedLifetime) {
			delete(m.earned, k)
			dropped++
		}
	}
	m.stats.GCSweeps++
	m.stats.GCDropped += uint64(dropped)
}

// dump renders the model's tables in dumpTables' form.
func (m *refModel) dump() string {
	var lines []string
	for k, v := range m.pending {
		lines = append(lines, fmt.Sprintf("P %q %d %d %d\n", k, v.first, v.last, v.attempts))
	}
	for k, v := range m.passed {
		lines = append(lines, fmt.Sprintf("W %q %d %d %d\n", k, v.at, v.used, v.n))
	}
	for k, v := range m.clients {
		lines = append(lines, fmt.Sprintf("C %q %d %d\n", k, v.n, v.used))
	}
	for k, v := range m.earned {
		lines = append(lines, fmt.Sprintf("E %q %d %d %d\n", k, v.at, v.used, v.n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// modelPolicies are the policies the model is checked under: every
// mechanism on, the same keyed by /24, and every optional mechanism
// and lifetime off. Earned grants expire before the client records
// granted with them, and those before the triplets that credit them,
// so each check can fall through to every later one.
func modelPolicies() map[string]Policy {
	all := walTestPolicy()
	all.AutoWhitelistAfter = 2
	all.AutoWhitelistLifetime = 2500 * time.Second
	all.EarnedLifetime = 1500 * time.Second
	subnet := all
	subnet.SubnetKeying = true
	bare := Policy{Threshold: 300 * time.Second}
	return map[string]Policy{"all": all, "subnet": subnet, "bare": bare}
}

// modelRun drives one engine and the model with the same random ops.
type modelRun struct {
	t         *testing.T
	rng       *rand.Rand
	clock     *simtime.Sim
	newEngine func(Policy, simtime.Clock) *Greylister
	m         *refModel
	g         *Greylister
	wal       *WAL   // nil for an engine restarted by Save and Load
	dir       string // the WAL's directory
	step      int
}

// triplet draws from a small pool, so that triplets recur: four
// clients in two /24s, senders differing only in case or with no
// domain, and the whitelisted recipient.
func (r *modelRun) triplet() Triplet {
	clients := []string{"192.0.2.1", "192.0.2.2", "198.51.100.7", "198.51.100.8"}
	senders := []string{"a@x.example", "A@X.example", "b@y.example", "c@x.example", "nodomain", "d@"}
	rcpts := []string{"u@foo.example", "v@foo.example", "U@foo.example", modelWhitelisted}
	return Triplet{
		ClientIP:  clients[r.rng.Intn(len(clients))],
		Sender:    senders[r.rng.Intn(len(senders))],
		Recipient: rcpts[r.rng.Intn(len(rcpts))],
	}
}

// configure installs the model's chain and static whitelist on g.
func (r *modelRun) configure(g *Greylister) {
	g.Whitelist().AddRecipient(modelWhitelisted)
	stages := []Stage{WhitelistStage(g.Whitelist())}
	if r.m.rekey {
		stages = append(stages, senderDomainRekey{})
	}
	g.SetChain(NewChain(stages...))
}

func (r *modelRun) openWAL(dir string) {
	r.dir = dir
	log, ck := walPaths(dir)
	w, _, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, r.g)
	if err != nil {
		r.t.Fatalf("step %d: OpenWAL: %v", r.step, err)
	}
	r.wal = w
}

// restart replaces the engine with one recovered from its state: by
// Save and Load, or, with a WAL, as after a crash, from a copy of the
// synced log and checkpoint.
func (r *modelRun) restart() string {
	g := r.newEngine(r.m.p, r.clock)
	r.configure(g)
	if r.wal == nil {
		var buf bytes.Buffer
		if err := r.g.Save(&buf); err != nil {
			r.t.Fatal(err)
		}
		if err := g.Load(&buf); err != nil {
			r.t.Fatalf("step %d: Load: %v", r.step, err)
		}
		r.g = g
		return "save-load"
	}
	if err := r.wal.Sync(); err != nil {
		r.t.Fatal(err)
	}
	oldLog, oldCk := walPaths(r.dir)
	dir := r.t.TempDir()
	newLog, newCk := walPaths(dir)
	copyFile(r.t, oldLog, newLog)
	copyFile(r.t, oldCk, newCk)
	if err := r.wal.Close(); err != nil {
		r.t.Fatal(err)
	}
	r.g = g
	r.openWAL(dir)
	r.m.stats = r.m.ckStats
	return "crash-replay"
}

// do runs one random op on both sides and returns its name and the
// verdicts it produced, engine's then model's.
func (r *modelRun) do() (string, []Verdict, []Verdict) {
	now := r.clock.Now().UnixNano()
	switch n := r.rng.Intn(100); {
	case n < 40:
		t := r.triplet()
		return fmt.Sprintf("Check %v", t), []Verdict{r.g.Check(t)}, []Verdict{r.m.check(t, now)}
	case n < 55:
		// A pipelined burst: runs of recipients sharing a client and
		// sender, now and then back to the burst's first envelope.
		ts := []Triplet{r.triplet()}
		for k := r.rng.Intn(8); k > 0; k-- {
			u := r.triplet()
			switch r.rng.Intn(4) {
			case 0, 1:
				u.ClientIP, u.Sender = ts[len(ts)-1].ClientIP, ts[len(ts)-1].Sender
			case 2:
				u.ClientIP, u.Sender = ts[0].ClientIP, ts[0].Sender
			}
			ts = append(ts, u)
		}
		return fmt.Sprintf("CheckBatch %v", ts), r.g.CheckBatch(ts, nil), r.m.checkBatch(ts, now)
	case n < 80:
		steps := []time.Duration{0, time.Second, 100 * time.Second, 299 * time.Second, 301 * time.Second,
			1501 * time.Second, 2001 * time.Second, 2501 * time.Second, 5001 * time.Second}
		d := steps[r.rng.Intn(len(steps))]
		r.clock.Advance(d)
		return fmt.Sprintf("advance %v", d), nil, nil
	case n < 84:
		r.g.GC()
		r.m.gc(now)
		return "GC", nil, nil
	case n < 92:
		r.m.rekey = !r.m.rekey
		r.configure(r.g)
		return fmt.Sprintf("rekey=%v", r.m.rekey), nil, nil
	default:
		return r.restart(), nil, nil
	}
}

// compare fails the test at the first step where the engine and the
// model disagree.
func (r *modelRun) compare(op string, got, want []Verdict) {
	r.t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.Decision != w.Decision || g.Reason != w.Reason || g.Attempts != w.Attempts ||
			g.WaitRemaining != w.WaitRemaining || g.Waited != w.Waited || !g.FirstSeen.Equal(w.FirstSeen) {
			r.t.Fatalf("step %d, %s: verdict %d = %+v, model says %+v", r.step, op, i, g, w)
		}
	}
	if g, w := r.g.Stats(), r.m.stats; g != w {
		r.t.Fatalf("step %d, %s: Stats = %+v, model says %+v", r.step, op, g, w)
	}
	if g, w := dumpTables(r.g), r.m.dump(); g != w {
		r.t.Fatalf("step %d, %s: tables\n%s\nmodel says\n%s", r.step, op, g, w)
	}
}

// runModel checks engines made by newEngine against the model: random
// op sequences from seeds 1 to seeds (Check, CheckBatch, clock
// advance, GC, a swap of the chain's rekey stage, and a restart) under
// every model policy, with the engine restarted by Save and Load or by
// crash and log replay, compared after every step.
func runModel(t *testing.T, seeds int64, newEngine func(Policy, simtime.Clock) *Greylister) {
	for name, p := range modelPolicies() {
		for _, withWAL := range []bool{false, true} {
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("%s/wal=%v/seed=%d", name, withWAL, seed), func(t *testing.T) {
					clock := simtime.NewSim(simtime.Epoch)
					r := &modelRun{t: t, rng: rand.New(rand.NewSource(seed)), clock: clock,
						newEngine: newEngine, m: newRefModel(p), g: newEngine(p, clock)}
					r.configure(r.g)
					if withWAL {
						r.openWAL(t.TempDir())
						defer func() { r.wal.Close() }()
					}
					for r.step = 0; r.step < 500; r.step++ {
						op, got, want := r.do()
						r.compare(op, got, want)
					}
				})
			}
		}
	}
}

// TestReferenceModel: the engine agrees with the reference model.
func TestReferenceModel(t *testing.T) { runModel(t, 5, New) }
