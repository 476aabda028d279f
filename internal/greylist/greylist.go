// Package greylist implements the greylisting policy engine — one half of
// the paper's subject matter (Section II). The semantics follow Postgrey,
// the implementation the paper tested against:
//
//   - Deliveries are keyed by the triplet (client IP, envelope sender,
//     envelope recipient). The message content is deliberately NOT part of
//     the key; Section V-A of the paper verifies this is why a later,
//     different message between the same parties is whitelisted by the
//     earlier one's retry.
//   - The first attempt for an unknown triplet is deferred with a
//     transient error (451 4.7.1 at the SMTP layer).
//   - A retry after the threshold has elapsed — but within the retry
//     window — passes and records the triplet for future deliveries.
//   - A retry before the threshold is deferred again without resetting
//     the first-seen time (Postgrey behaviour; the paper's 5 s vs 300 s
//     comparison in Figure 3 depends on it).
//   - After a configurable number of successful deliveries, the client IP
//     (optionally its /24 network) is auto-whitelisted, skipping the
//     triplet dance entirely.
//
// The package is transport-agnostic: the SMTP server calls Check at RCPT
// time and maps the verdict to a reply. All time flows through a
// simtime.Clock so thresholds of hours run in simulated instants.
//
// The decision path is built for serving load: on a warmed-up server the
// overwhelming majority of checks hit an already-passed triplet or an
// auto-whitelisted client, so Check runs that case allocation-free under
// a read lock (stack-built keys, atomic counter updates) and only takes
// the exclusive lock when it must mutate the tables. CheckBatch amortizes
// even the read lock across a pipelined run of RCPTs.
package greylist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Triplet identifies a delivery for greylisting purposes.
type Triplet struct {
	// ClientIP is the connecting client's IP address (no port).
	ClientIP string
	// Sender is the envelope reverse-path mailbox ("" for bounces).
	Sender string
	// Recipient is the envelope forward-path mailbox.
	Recipient string
}

// String implements fmt.Stringer.
func (t Triplet) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.ClientIP, t.Sender, t.Recipient)
}

// Policy configures a Greylister. The zero value is not useful; start from
// DefaultPolicy.
type Policy struct {
	// Threshold is the minimum wait between the first attempt and an
	// accepted retry (Postgrey --delay; default 300 s). The paper
	// evaluates 5 s, 300 s and 21 600 s.
	Threshold time.Duration
	// RetryWindow is how long a deferred triplet stays valid awaiting
	// its retry. A retry after the window is treated as a fresh first
	// attempt (Postgrey --retry-window).
	RetryWindow time.Duration
	// PassLifetime is how long a passed triplet stays whitelisted
	// after its last use (Postgrey --max-age).
	PassLifetime time.Duration
	// AutoWhitelistAfter is the number of successful deliveries after
	// which the client address is whitelisted outright; 0 disables
	// client auto-whitelisting (Postgrey --auto-whitelist-clients).
	AutoWhitelistAfter int
	// AutoWhitelistLifetime is how long an auto-whitelisted client
	// stays exempt after its last delivery.
	AutoWhitelistLifetime time.Duration
	// SubnetKeying keys triplets and the auto-whitelist by the client's
	// /24 network instead of the full address.
	SubnetKeying bool
	// EarnedLifetime enables the earned whitelist: once a client (its
	// post-rekey key component — IP, /24, or SPF domain) survives the
	// triplet dance, it is exempt from greylisting for this long after
	// its last delivery, the timer renewing on every use (the
	// -whiteexp knob of sqlgrey-style deployments, vs -greyexp ==
	// RetryWindow). 0 disables. Unlike the per-triplet passed table,
	// earned credit covers *new* sender/recipient pairs from the same
	// client; unlike AutoWhitelistAfter it takes one pass, not N.
	EarnedLifetime time.Duration
}

// DefaultPolicy returns Postgrey's defaults: 300 s delay, 2-day retry
// window, 35-day pass lifetime, client auto-whitelist after 5 deliveries.
func DefaultPolicy() Policy {
	return Policy{
		Threshold:             300 * time.Second,
		RetryWindow:           48 * time.Hour,
		PassLifetime:          35 * 24 * time.Hour,
		AutoWhitelistAfter:    5,
		AutoWhitelistLifetime: 35 * 24 * time.Hour,
	}
}

// Decision is the outcome of a greylisting check.
type Decision int

// Decisions.
const (
	// Defer tells the server to reply with a transient error.
	Defer Decision = iota + 1
	// Pass tells the server to accept the delivery.
	Pass
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Defer:
		return "defer"
	case Pass:
		return "pass"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Reason explains a Verdict.
type Reason int

// Reasons.
const (
	// ReasonFirstSeen: unknown triplet, deferred and recorded.
	ReasonFirstSeen Reason = iota + 1
	// ReasonTooSoon: retry arrived before the threshold elapsed.
	ReasonTooSoon
	// ReasonRetryAccepted: retry arrived after the threshold; the
	// triplet is now whitelisted.
	ReasonRetryAccepted
	// ReasonKnownTriplet: the triplet passed previously.
	ReasonKnownTriplet
	// ReasonWhitelisted: client, sender domain or recipient is on the
	// static whitelist.
	ReasonWhitelisted
	// ReasonAutoWhitelisted: the client earned the auto-whitelist.
	ReasonAutoWhitelisted
	// ReasonWindowExpired: a retry arrived after the retry window;
	// treated as a fresh first attempt (and deferred).
	ReasonWindowExpired
	// ReasonDNSWL: the client is listed on a configured DNS whitelist
	// (bypass-chain stage).
	ReasonDNSWL
	// ReasonRDNS: the client's reverse DNS looks like a legitimate
	// mail server (bypass-chain stage).
	ReasonRDNS
	// ReasonEarnedWhitelist: the client earned a whitelist pass by
	// surviving the triplet dance within Policy.EarnedLifetime.
	ReasonEarnedWhitelist
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonFirstSeen:
		return "first-seen"
	case ReasonTooSoon:
		return "too-soon"
	case ReasonRetryAccepted:
		return "retry-accepted"
	case ReasonKnownTriplet:
		return "known-triplet"
	case ReasonWhitelisted:
		return "whitelisted"
	case ReasonAutoWhitelisted:
		return "auto-whitelisted"
	case ReasonWindowExpired:
		return "window-expired"
	case ReasonDNSWL:
		return "dnswl-listed"
	case ReasonRDNS:
		return "rdns-mailserver"
	case ReasonEarnedWhitelist:
		return "earned-whitelist"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Verdict is the result of a Check.
type Verdict struct {
	Decision Decision
	Reason   Reason
	// WaitRemaining, on a deferral, is how long until a retry would be
	// accepted.
	WaitRemaining time.Duration
	// Waited, on a retry-accepted pass, is how long the delivery was
	// delayed by greylisting (now minus first-seen).
	Waited time.Duration
	// FirstSeen is when the triplet was first observed (zero for
	// whitelist passes).
	FirstSeen time.Time
	// Attempts counts delivery attempts for this triplet including the
	// current one (zero for whitelist passes).
	Attempts int
}

// Stats are cumulative counters; read them with Greylister.Stats.
type Stats struct {
	Checks            uint64
	DeferredNew       uint64 // first-seen deferrals
	DeferredEarly     uint64 // retries before threshold
	DeferredExpired   uint64 // retries after the retry window
	PassedRetry       uint64 // retries accepted past threshold
	PassedKnown       uint64 // already-whitelisted triplets
	PassedWhitelist   uint64 // static whitelist hits
	PassedAutoClient  uint64 // auto-whitelisted clients
	PassedDNSWL       uint64 // DNS-whitelist bypass-stage hits
	PassedRDNS        uint64 // reverse-DNS heuristic bypass-stage hits
	PassedEarned      uint64 // earned-whitelist hits
	PassedBypassOther uint64 // bypasses from stages with custom reasons
	SPFRekeyed        uint64 // checks keyed by SPF domain instead of IP
	EarnedGranted     uint64 // earned-whitelist entries granted
	TripletsRecorded  uint64
	TripletsWhitelist uint64 // triplets promoted to passed
	GCSweeps          uint64 // GC invocations
	GCDropped         uint64 // records dropped by GC
}

// add accumulates o into s; loading a legacy sharded snapshot sums the
// per-shard stats through it.
func (s *Stats) add(o Stats) {
	s.Checks += o.Checks
	s.DeferredNew += o.DeferredNew
	s.DeferredEarly += o.DeferredEarly
	s.DeferredExpired += o.DeferredExpired
	s.PassedRetry += o.PassedRetry
	s.PassedKnown += o.PassedKnown
	s.PassedWhitelist += o.PassedWhitelist
	s.PassedAutoClient += o.PassedAutoClient
	s.PassedDNSWL += o.PassedDNSWL
	s.PassedRDNS += o.PassedRDNS
	s.PassedEarned += o.PassedEarned
	s.PassedBypassOther += o.PassedBypassOther
	s.SPFRekeyed += o.SPFRekeyed
	s.EarnedGranted += o.EarnedGranted
	s.TripletsRecorded += o.TripletsRecorded
	s.TripletsWhitelist += o.TripletsWhitelist
	s.GCSweeps += o.GCSweeps
	s.GCDropped += o.GCDropped
}

// counters are the live Stats, kept as atomics so the read-locked fast
// path (and concurrent fast-path checks racing each other) can count
// without the exclusive lock.
type counters struct {
	checks            atomic.Uint64
	deferredNew       atomic.Uint64
	deferredEarly     atomic.Uint64
	deferredExpired   atomic.Uint64
	passedRetry       atomic.Uint64
	passedKnown       atomic.Uint64
	passedWhitelist   atomic.Uint64
	passedAutoClient  atomic.Uint64
	passedDNSWL       atomic.Uint64
	passedRDNS        atomic.Uint64
	passedEarned      atomic.Uint64
	passedBypassOther atomic.Uint64
	spfRekeyed        atomic.Uint64
	earnedGranted     atomic.Uint64
	tripletsRecorded  atomic.Uint64
	tripletsWhitelist atomic.Uint64
	gcSweeps          atomic.Uint64
	gcDropped         atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Checks:            c.checks.Load(),
		DeferredNew:       c.deferredNew.Load(),
		DeferredEarly:     c.deferredEarly.Load(),
		DeferredExpired:   c.deferredExpired.Load(),
		PassedRetry:       c.passedRetry.Load(),
		PassedKnown:       c.passedKnown.Load(),
		PassedWhitelist:   c.passedWhitelist.Load(),
		PassedAutoClient:  c.passedAutoClient.Load(),
		PassedDNSWL:       c.passedDNSWL.Load(),
		PassedRDNS:        c.passedRDNS.Load(),
		PassedEarned:      c.passedEarned.Load(),
		PassedBypassOther: c.passedBypassOther.Load(),
		SPFRekeyed:        c.spfRekeyed.Load(),
		EarnedGranted:     c.earnedGranted.Load(),
		TripletsRecorded:  c.tripletsRecorded.Load(),
		TripletsWhitelist: c.tripletsWhitelist.Load(),
		GCSweeps:          c.gcSweeps.Load(),
		GCDropped:         c.gcDropped.Load(),
	}
}

func (c *counters) restore(s Stats) {
	c.checks.Store(s.Checks)
	c.deferredNew.Store(s.DeferredNew)
	c.deferredEarly.Store(s.DeferredEarly)
	c.deferredExpired.Store(s.DeferredExpired)
	c.passedRetry.Store(s.PassedRetry)
	c.passedKnown.Store(s.PassedKnown)
	c.passedWhitelist.Store(s.PassedWhitelist)
	c.passedAutoClient.Store(s.PassedAutoClient)
	c.passedDNSWL.Store(s.PassedDNSWL)
	c.passedRDNS.Store(s.PassedRDNS)
	c.passedEarned.Store(s.PassedEarned)
	c.passedBypassOther.Store(s.PassedBypassOther)
	c.spfRekeyed.Store(s.SPFRekeyed)
	c.earnedGranted.Store(s.EarnedGranted)
	c.tripletsRecorded.Store(s.TripletsRecorded)
	c.tripletsWhitelist.Store(s.TripletsWhitelist)
	c.gcSweeps.Store(s.GCSweeps)
	c.gcDropped.Store(s.GCDropped)
}

// pendingRecord tracks a deferred triplet. Only touched under the write
// lock (deferrals always mutate state).
type pendingRecord struct {
	firstSeen time.Time
	lastSeen  time.Time
	attempts  int
}

// passedRecord tracks a whitelisted triplet. passedAt is immutable after
// creation; lastUsed/deliveries are atomics (unix nanoseconds / count)
// so read-locked hits can refresh them concurrently.
type passedRecord struct {
	passedAt   time.Time
	lastUsed   atomic.Int64
	deliveries atomic.Int64
}

// clientRecord tracks a client's auto-whitelist credit; fields are
// atomics for the same reason as passedRecord.
type clientRecord struct {
	deliveries atomic.Int64
	lastUsed   atomic.Int64
}

// earnedRecord tracks an earned-whitelist grant, keyed by the client
// component of the triplet key (so an SPF-rekeyed domain shares one
// grant across all its outbound IPs). grantedAt is immutable after
// creation; lastUsed/deliveries are atomics so read-locked hits renew
// the expiry timer concurrently.
type earnedRecord struct {
	grantedAt  time.Time
	lastUsed   atomic.Int64
	deliveries atomic.Int64
}

// Greylister is the policy engine. It is safe for concurrent use.
type Greylister struct {
	policy    Policy
	clock     simtime.Clock
	whitelist *Whitelist

	// chain is the bypass chain evaluated ahead of the triplet check.
	// Swapped whole via SetChain (chains are immutable), so check
	// paths pay one atomic load. Never nil after New.
	chain atomic.Pointer[Chain]

	stats counters
	// inst holds the optional metrics instrumentation (latency and batch
	// histograms) installed by Register. Nil until then, so unregistered
	// engines pay only one atomic pointer load per check.
	inst atomic.Pointer[instruments]
	// obsv holds the optional verdict observer feeding the live
	// observatory (SetObserver). Same nil-until-installed discipline
	// as inst: unobserved engines pay one atomic load per check.
	obsv atomic.Pointer[Observer]

	mu      sync.RWMutex
	pending map[string]*pendingRecord
	passed  map[string]*passedRecord
	clients map[string]*clientRecord
	earned  map[string]*earnedRecord

	// wal, when non-nil, journals every table mutation (see wal.go).
	// Read under either lock mode; attached and detached only under the
	// exclusive lock, so a plain pointer is race-free and the fast path
	// pays a single nil test when no WAL is configured.
	wal *WAL
}

// New returns a Greylister with the given policy. A nil clock means the
// real clock.
func New(policy Policy, clock simtime.Clock) *Greylister {
	if clock == nil {
		clock = simtime.Real{}
	}
	g := &Greylister{
		policy:    policy,
		clock:     clock,
		whitelist: NewWhitelist(),
		pending:   make(map[string]*pendingRecord),
		passed:    make(map[string]*passedRecord),
		clients:   make(map[string]*clientRecord),
		earned:    make(map[string]*earnedRecord),
	}
	// The default chain is the classic behaviour: static whitelist,
	// then the triplet check.
	g.chain.Store(NewChain(WhitelistStage(g.whitelist)))
	return g
}

// Policy returns the configured policy.
func (g *Greylister) Policy() Policy { return g.policy }

// Whitelist returns the static whitelist for configuration.
func (g *Greylister) Whitelist() *Whitelist { return g.whitelist }

// SetChain installs a bypass chain, replacing the current one for all
// subsequent checks (in-flight checks finish on the chain they loaded).
// A nil chain restores the default whitelist-only chain. Call before
// Register if per-stage metrics should cover the new stages.
func (g *Greylister) SetChain(c *Chain) {
	if c == nil {
		c = NewChain(WhitelistStage(g.whitelist))
	}
	g.chain.Store(c)
}

// Chain returns the currently installed bypass chain.
func (g *Greylister) Chain() *Chain { return g.chain.Load() }

// Stats returns a snapshot of the counters.
func (g *Greylister) Stats() Stats { return g.stats.snapshot() }

// Check runs the greylisting decision procedure for one delivery attempt
// and updates state accordingly.
//
// The common serving-path cases — static whitelist, auto-whitelisted
// client, already-passed triplet — complete without allocating and
// without the exclusive lock. With metrics registered, the wall-clock
// decision latency lands in the greylist_check_seconds histogram —
// still allocation-free.
func (g *Greylister) Check(t Triplet) Verdict { return g.CheckTraced(t, nil) }

// CheckTraced is Check with the verdict recorded into tr — the
// triplet key, decision, reason, wait remaining and attempt count —
// and, when metrics are registered, the check latency observed with
// tr's ID as the histogram bucket's exemplar, so a slow bucket on
// /debug/traces links to this very conversation. A nil trace is
// exactly Check: the hot path is untouched.
func (g *Greylister) CheckTraced(t Triplet, tr *trace.Trace) Verdict {
	ch := g.chain.Load()
	out, idx := ch.eval(t)
	if tr != nil && idx >= 0 {
		tr.Bypass(ch.StageName(idx), out.Action.String())
	}
	var v Verdict
	inst := g.inst.Load()
	op := g.obsv.Load()
	if inst != nil || op != nil {
		start := time.Now()
		v = g.decide(t, out)
		elapsed := time.Since(start)
		if inst != nil {
			if tr != nil {
				inst.checkSeconds.ObserveDurationExemplar(elapsed, tr.ID())
			} else {
				inst.checkSeconds.ObserveDuration(elapsed)
			}
		}
		if op != nil {
			(*op).ObserveVerdict(t, v, int64(elapsed))
		}
	} else {
		v = g.decide(t, out)
	}
	if tr != nil {
		tr.Greylist(v.Decision.String(), v.Reason.String(), t.String(), v.WaitRemaining, v.Attempts)
	}
	return v
}

// decide turns one chain-evaluated attempt into a verdict: a bypass
// passes outright; otherwise the triplet check runs under the client
// key the chain chose (the IP, or the SPF domain on a rekey).
func (g *Greylister) decide(t Triplet, out StageOutcome) Verdict {
	now := g.clock.Now()
	g.stats.checks.Add(1)

	if out.Action == StageBypass {
		g.countBypass(out.Reason)
		return Verdict{Decision: Pass, Reason: out.Reason}
	}
	rekey := out.rekey()
	if rekey != "" {
		g.stats.spfRekeyed.Add(1)
	}

	var ckBuf, kBuf [keyBufCap]byte
	clientKey := appendChainClientKey(ckBuf[:0], t.ClientIP, rekey, g.policy.SubnetKeying)
	key := t.appendKey(kBuf[:0], clientKey)

	g.mu.RLock()
	v, ok := g.fastPath(clientKey, key, now)
	g.mu.RUnlock()
	if ok {
		return v
	}

	g.mu.Lock()
	v = g.checkSlow(clientKey, key, now)
	g.mu.Unlock()
	return v
}

// countBypass attributes a chain bypass verdict to its Stats counter.
func (g *Greylister) countBypass(r Reason) {
	switch r {
	case ReasonWhitelisted:
		g.stats.passedWhitelist.Add(1)
	case ReasonDNSWL:
		g.stats.passedDNSWL.Add(1)
	case ReasonRDNS:
		g.stats.passedRDNS.Add(1)
	default:
		g.stats.passedBypassOther.Add(1)
	}
}

// fastPath attempts the read-only decision: an auto-whitelisted client or
// a known-passed triplet. It runs under the read lock and mutates nothing
// but atomic fields. The second return value reports whether the verdict
// is final; false sends the caller to the write-locked slow path (unknown
// triplet, expired record to delete, or a client record to create).
func (g *Greylister) fastPath(clientKey, key []byte, now time.Time) (Verdict, bool) {
	nowNs := now.UnixNano()
	if g.policy.EarnedLifetime > 0 {
		if e, ok := g.earned[string(clientKey)]; ok {
			if nowNs-e.lastUsed.Load() > int64(g.policy.EarnedLifetime) {
				return Verdict{}, false // expired: slow path deletes it
			}
			e.lastUsed.Store(nowNs) // auto-renew on use
			e.deliveries.Add(1)
			if w := g.wal; w != nil {
				w.append(walOpEarnTouch, key, nowNs, 0, 0)
			}
			g.stats.passedEarned.Add(1)
			return Verdict{Decision: Pass, Reason: ReasonEarnedWhitelist, FirstSeen: e.grantedAt}, true
		}
	}
	if g.policy.AutoWhitelistAfter > 0 {
		if c, ok := g.clients[string(clientKey)]; ok {
			if g.policy.AutoWhitelistLifetime > 0 && nowNs-c.lastUsed.Load() > int64(g.policy.AutoWhitelistLifetime) {
				return Verdict{}, false // stale: slow path deletes it
			}
			if int(c.deliveries.Load()) >= g.policy.AutoWhitelistAfter {
				c.lastUsed.Store(nowNs)
				if w := g.wal; w != nil {
					w.append(walOpAutoPass, key, nowNs, 0, 0)
				}
				g.stats.passedAutoClient.Add(1)
				return Verdict{Decision: Pass, Reason: ReasonAutoWhitelisted}, true
			}
		}
	}

	p, ok := g.passed[string(key)]
	if !ok {
		return Verdict{}, false
	}
	if g.policy.PassLifetime > 0 && nowNs-p.lastUsed.Load() > int64(g.policy.PassLifetime) {
		return Verdict{}, false // expired: slow path deletes it
	}
	var c *clientRecord
	if g.policy.AutoWhitelistAfter > 0 {
		if c, ok = g.clients[string(clientKey)]; !ok {
			// First credit for this client allocates its record:
			// that's the slow path's job.
			return Verdict{}, false
		}
	}
	p.lastUsed.Store(nowNs)
	n := p.deliveries.Add(1)
	if c != nil {
		c.deliveries.Add(1)
		c.lastUsed.Store(nowNs)
	}
	if w := g.wal; w != nil {
		w.append(walOpTouch, key, nowNs, 0, 0)
	}
	g.stats.passedKnown.Add(1)
	return Verdict{Decision: Pass, Reason: ReasonKnownTriplet, FirstSeen: p.passedAt, Attempts: int(n)}, true
}

// checkSlow is the write-locked decision procedure. Callers hold g.mu
// exclusively. It re-runs the whole check (state may have changed between
// the read and write lock) and performs every mutation the fast path
// cannot: record creation, promotion, expiry deletion.
func (g *Greylister) checkSlow(clientKey, key []byte, now time.Time) Verdict {
	nowNs := now.UnixNano()

	if g.policy.EarnedLifetime > 0 {
		if e, ok := g.earned[string(clientKey)]; ok {
			if nowNs-e.lastUsed.Load() > int64(g.policy.EarnedLifetime) {
				delete(g.earned, string(clientKey))
				if w := g.wal; w != nil {
					w.append(walOpDelEarned, key, 0, 0, 0)
				}
			} else {
				e.lastUsed.Store(nowNs)
				e.deliveries.Add(1)
				if w := g.wal; w != nil {
					w.append(walOpEarnTouch, key, nowNs, 0, 0)
				}
				g.stats.passedEarned.Add(1)
				return Verdict{Decision: Pass, Reason: ReasonEarnedWhitelist, FirstSeen: e.grantedAt}
			}
		}
	}

	if g.policy.AutoWhitelistAfter > 0 {
		if c, ok := g.clients[string(clientKey)]; ok {
			if g.policy.AutoWhitelistLifetime > 0 && nowNs-c.lastUsed.Load() > int64(g.policy.AutoWhitelistLifetime) {
				delete(g.clients, string(clientKey))
				if w := g.wal; w != nil {
					w.append(walOpDelClient, key, 0, 0, 0)
				}
			} else if int(c.deliveries.Load()) >= g.policy.AutoWhitelistAfter {
				c.lastUsed.Store(nowNs)
				if w := g.wal; w != nil {
					w.append(walOpAutoPass, key, nowNs, 0, 0)
				}
				g.stats.passedAutoClient.Add(1)
				return Verdict{Decision: Pass, Reason: ReasonAutoWhitelisted}
			}
		}
	}

	if p, ok := g.passed[string(key)]; ok {
		if g.policy.PassLifetime > 0 && nowNs-p.lastUsed.Load() > int64(g.policy.PassLifetime) {
			delete(g.passed, string(key))
			if w := g.wal; w != nil {
				w.append(walOpDelPassed, key, 0, 0, 0)
			}
		} else {
			p.lastUsed.Store(nowNs)
			n := p.deliveries.Add(1)
			g.creditClient(clientKey, nowNs)
			if w := g.wal; w != nil {
				w.append(walOpTouch, key, nowNs, 0, 0)
			}
			g.stats.passedKnown.Add(1)
			return Verdict{Decision: Pass, Reason: ReasonKnownTriplet, FirstSeen: p.passedAt, Attempts: int(n)}
		}
	}

	rec, known := g.pending[string(key)]
	if known && g.policy.RetryWindow > 0 && now.Sub(rec.firstSeen) > g.policy.RetryWindow {
		// The retry came too late: start over.
		g.stats.deferredExpired.Add(1)
		rec.firstSeen = now
		rec.lastSeen = now
		rec.attempts = 1
		if w := g.wal; w != nil {
			w.append(walOpPendingUpsert, key, nowNs, nowNs, 1)
		}
		return Verdict{
			Decision:      Defer,
			Reason:        ReasonWindowExpired,
			WaitRemaining: g.policy.Threshold,
			FirstSeen:     now,
			Attempts:      1,
		}
	}

	if !known {
		g.pending[string(key)] = &pendingRecord{firstSeen: now, lastSeen: now, attempts: 1}
		if w := g.wal; w != nil {
			w.append(walOpPendingUpsert, key, nowNs, nowNs, 1)
		}
		g.stats.deferredNew.Add(1)
		g.stats.tripletsRecorded.Add(1)
		return Verdict{
			Decision:      Defer,
			Reason:        ReasonFirstSeen,
			WaitRemaining: g.policy.Threshold,
			FirstSeen:     now,
			Attempts:      1,
		}
	}

	rec.attempts++
	rec.lastSeen = now
	elapsed := now.Sub(rec.firstSeen)
	if elapsed < g.policy.Threshold {
		if w := g.wal; w != nil {
			w.append(walOpPendingUpsert, key, rec.firstSeen.UnixNano(), nowNs, uint32(rec.attempts))
		}
		g.stats.deferredEarly.Add(1)
		return Verdict{
			Decision:      Defer,
			Reason:        ReasonTooSoon,
			WaitRemaining: g.policy.Threshold - elapsed,
			FirstSeen:     rec.firstSeen,
			Attempts:      rec.attempts,
		}
	}

	// Retry accepted: promote to passed.
	delete(g.pending, string(key))
	p := &passedRecord{passedAt: now}
	p.lastUsed.Store(nowNs)
	p.deliveries.Store(1)
	g.passed[string(key)] = p
	g.creditClient(clientKey, nowNs)
	if g.grantEarned(clientKey, now) {
		g.stats.earnedGranted.Add(1)
	}
	if w := g.wal; w != nil {
		// No separate grant record: replaying the promote re-grants
		// the earned entry whenever the policy enables it, mirroring
		// this very mutation.
		w.append(walOpPromote, key, nowNs, 0, 0)
	}
	g.stats.passedRetry.Add(1)
	g.stats.tripletsWhitelist.Add(1)
	return Verdict{
		Decision:  Pass,
		Reason:    ReasonRetryAccepted,
		FirstSeen: rec.firstSeen,
		Attempts:  rec.attempts,
		Waited:    elapsed,
	}
}

// CheckBatch decides a run of delivery attempts (e.g. a pipelined burst
// of RCPTs) sharing one timestamp and one trip through the store's
// locks: a single read-lock pass decides every fast-path attempt, and
// only the misses take the exclusive lock, once, together.
//
// The result slice is out when it has sufficient capacity (letting
// callers reuse one slice across batches), a fresh allocation otherwise.
// Verdicts are positionally matched to ts. Semantics are identical to
// calling Check on each triplet in order at the same instant.
func (g *Greylister) CheckBatch(ts []Triplet, out []Verdict) []Verdict {
	inst := g.inst.Load()
	op := g.obsv.Load()
	if inst == nil && op == nil {
		return g.checkBatch(ts, out)
	}
	start := time.Now()
	out = g.checkBatch(ts, out)
	elapsed := time.Since(start)
	if inst != nil {
		inst.batchSeconds.ObserveDuration(elapsed)
		inst.batchSize.Observe(float64(len(ts)))
	}
	if op != nil && len(ts) > 0 {
		// Batch verdicts share the amortized per-RCPT latency, the
		// same accounting the batch path uses for its locks.
		per := int64(elapsed) / int64(len(ts))
		for i := range ts {
			(*op).ObserveVerdict(ts[i], out[i], per)
		}
	}
	return out
}

func (g *Greylister) checkBatch(ts []Triplet, out []Verdict) []Verdict {
	out = verdictSlice(out, len(ts))
	if len(ts) == 0 {
		return out
	}
	g.stats.checks.Add(uint64(len(ts)))

	// Evaluate the chain before (and outside) the store locks: stages
	// may do DNS I/O on a cache miss, which must never run under the
	// read lock the fast path shares with every other connection.
	// Bypass verdicts complete here; out[i].Decision == 0 marks the
	// attempts the store must decide. The rekey slice is only
	// allocated when some stage actually rekeys, keeping the
	// chain-negative batch allocation-free.
	ch := g.chain.Load()
	var rekeys []string
	for i, t := range ts {
		o, _ := ch.eval(t)
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
			out[i] = Verdict{}
		default:
			out[i] = Verdict{}
		}
	}
	return g.storeBatch(ts, rekeys, out)
}

// storeBatch runs the triplet check for every attempt whose verdict in
// out is still zero (chain-undecided), sharing one clock read and one
// trip through the locks. rekeys, when non-nil, carries the per-attempt
// key domain ("" = key by client IP). Callers have already counted
// stats.checks and chain outcomes.
func (g *Greylister) storeBatch(ts []Triplet, rekeys []string, out []Verdict) []Verdict {
	now := g.clock.Now()

	var kb keyBuilder
	misses := 0

	g.mu.RLock()
	for i := range ts {
		if out[i].Decision != 0 {
			continue
		}
		rk := ""
		if rekeys != nil {
			rk = rekeys[i]
		}
		clientKey, key := kb.build(ts[i], rk, g.policy.SubnetKeying)
		if v, ok := g.fastPath(clientKey, key, now); ok {
			out[i] = v
		} else {
			misses++
		}
	}
	g.mu.RUnlock()

	if misses == 0 {
		return out
	}
	// The fast path decided everything but the misses, so the zero
	// verdicts left in out are exactly the attempts to decide here.
	g.mu.Lock()
	for i := range ts {
		if out[i].Decision != 0 {
			continue
		}
		rk := ""
		if rekeys != nil {
			rk = rekeys[i]
		}
		clientKey, key := kb.build(ts[i], rk, g.policy.SubnetKeying)
		out[i] = g.checkSlow(clientKey, key, now)
	}
	g.mu.Unlock()
	return out
}

// keyBuilder amortizes key construction across a batch. A pipelined
// RCPT burst shares one client and one sender, so the (clientKey, NUL,
// lowercased sender, NUL) prefix is identical for every triplet; the
// builder caches it and rebuilds only the recipient suffix until the
// client or sender string changes.
//
// The cache holds lengths into its own arrays, not slices of them: a
// struct that points into itself escapes to the heap, which would cost
// CheckBatch an allocation per call.
type keyBuilder struct {
	ckBuf, kBuf          [keyBufCap]byte
	ckLen, prefixLen     int // cached bytes of ckBuf and kBuf; prefixLen 0 = none
	prevClient, prevSend string
	prevRekey            string
	valid                bool
}

// build returns (clientKey, storage key) for t, keying the client
// component by rekey (an SPF domain) when non-empty. Both results share
// the builder's buffers and are invalidated by the next call. A client
// key or prefix longer than keyBufCap is built on the heap and not
// cached.
func (kb *keyBuilder) build(t Triplet, rekey string, subnet bool) (clientKey, key []byte) {
	if !kb.valid || t.ClientIP != kb.prevClient || rekey != kb.prevRekey {
		clientKey = appendChainClientKey(kb.ckBuf[:0], t.ClientIP, rekey, subnet)
		if len(clientKey) > keyBufCap {
			kb.valid = false
			return clientKey, t.appendKey(nil, clientKey)
		}
		kb.ckLen = len(clientKey)
		kb.prevClient = t.ClientIP
		kb.prevRekey = rekey
		kb.valid = true
		kb.prefixLen = 0
	}
	clientKey = kb.ckBuf[:kb.ckLen]
	if kb.prefixLen == 0 || t.Sender != kb.prevSend {
		p := append(kb.kBuf[:0], clientKey...)
		p = append(p, 0)
		p = appendLower(p, t.Sender)
		p = append(p, 0)
		if len(p) > keyBufCap {
			kb.prefixLen = 0
			return clientKey, appendLower(p, t.Recipient)
		}
		kb.prefixLen = len(p)
		kb.prevSend = t.Sender
	}
	return clientKey, appendLower(kb.kBuf[:kb.prefixLen], t.Recipient)
}

// verdictSlice returns out resized to n, reusing its backing array when
// possible. Every element is overwritten by the caller.
func verdictSlice(out []Verdict, n int) []Verdict {
	if cap(out) < n {
		return make([]Verdict, n)
	}
	return out[:n]
}

// creditClient counts a successful delivery toward the client
// auto-whitelist. Callers hold g.mu exclusively.
func (g *Greylister) creditClient(clientKey []byte, nowNs int64) {
	if g.policy.AutoWhitelistAfter <= 0 {
		return
	}
	c, ok := g.clients[string(clientKey)]
	if !ok {
		c = &clientRecord{}
		g.clients[string(clientKey)] = c
	}
	c.deliveries.Add(1)
	c.lastUsed.Store(nowNs)
}

// grantEarned records an earned-whitelist grant for the client key
// after a promote, reporting whether a new entry was created
// (re-granting an existing one just renews it). Callers hold g.mu
// exclusively. Stats are the caller's job: WAL replay shares this
// mutation but must leave counters frozen.
func (g *Greylister) grantEarned(clientKey []byte, now time.Time) bool {
	if g.policy.EarnedLifetime <= 0 {
		return false
	}
	e, ok := g.earned[string(clientKey)]
	if !ok {
		e = &earnedRecord{grantedAt: now}
		g.earned[string(clientKey)] = e
	}
	e.lastUsed.Store(now.UnixNano())
	return !ok
}

// GC removes expired pending and passed records and stale auto-whitelist
// entries, returning how many were dropped. Deployments run this
// periodically; experiments call it between phases.
func (g *Greylister) GC() int {
	now := g.clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	// One keyless record replays the whole sweep: the expiry decisions
	// are a pure function of the tables and the sweep time.
	if w := g.wal; w != nil {
		w.append(walOpGC, nil, now.UnixNano(), 0, 0)
	}
	dropped := g.gcLocked(now)
	g.stats.gcSweeps.Add(1)
	g.stats.gcDropped.Add(uint64(dropped))
	return dropped
}

// gcLocked sweeps expired records at the given instant, returning how
// many were dropped. Callers hold g.mu exclusively. Split from GC so
// WAL replay can re-run a logged sweep without touching Stats or
// re-journaling it.
func (g *Greylister) gcLocked(now time.Time) int {
	nowNs := now.UnixNano()
	dropped := 0
	if g.policy.RetryWindow > 0 {
		for k, rec := range g.pending {
			if now.Sub(rec.firstSeen) > g.policy.RetryWindow {
				delete(g.pending, k)
				dropped++
			}
		}
	}
	if g.policy.PassLifetime > 0 {
		for k, rec := range g.passed {
			if nowNs-rec.lastUsed.Load() > int64(g.policy.PassLifetime) {
				delete(g.passed, k)
				dropped++
			}
		}
	}
	if g.policy.AutoWhitelistLifetime > 0 {
		for k, rec := range g.clients {
			if nowNs-rec.lastUsed.Load() > int64(g.policy.AutoWhitelistLifetime) {
				delete(g.clients, k)
				dropped++
			}
		}
	}
	if g.policy.EarnedLifetime > 0 {
		for k, rec := range g.earned {
			if nowNs-rec.lastUsed.Load() > int64(g.policy.EarnedLifetime) {
				delete(g.earned, k)
				dropped++
			}
		}
	}
	return dropped
}

// PendingCount and PassedCount report table sizes (for monitoring and the
// paper's "cost for the system ... disk space" discussion).
func (g *Greylister) PendingCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.pending)
}

// PassedCount reports the number of whitelisted triplets.
func (g *Greylister) PassedCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.passed)
}

// ClientCount reports the number of auto-whitelist client records.
func (g *Greylister) ClientCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.clients)
}

// EarnedCount reports the number of earned-whitelist records.
func (g *Greylister) EarnedCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.earned)
}
