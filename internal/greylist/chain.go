package greylist

import "sync/atomic"

// The bypass chain generalizes the old hardcoded "static whitelist, then
// triplet check" verdict path into an ordered list of pluggable stages
// evaluated before greylisting. Deployed filters grew exactly this shape
// after the paper's measurements — spfgreylist keys the greylist at the
// SPF-domain level so relaying providers pass from any outbound IP, and
// grayland waives greylisting on SPF Pass, DNSWL listings and a
// reverse-DNS "looks like a mail server" heuristic. The stage contract
// below is the least structure that expresses all of them:
//
//   - A stage inspects the triplet and answers Skip (not my business,
//     ask the next stage), Bypass (accept outright with a Reason), or
//     Rekey (greylist as usual, but key the triplet by a domain instead
//     of the client IP — the SPF-Pass case, where any outbound IP of
//     the passing domain must share greylist state).
//   - First match wins: the first stage answering Bypass or Rekey ends
//     evaluation. A Rekey therefore shadows later stages by design — if
//     SPF passes, DNSWL/rDNS never run for that attempt.
//   - Stages fail open: an erroring stage counts an error and is
//     treated as Skip. Greylisting is itself the safety net (a
//     temporarily unanswerable DNS question must never block mail the
//     triplet dance would eventually accept), so the chain degrades to
//     plain greylisting when its inputs are down.
//
// Stages run before the engine's locks and may do I/O (a cache-missing
// SPF evaluation resolves TXT records); the chain-negative path through
// warmed stages must stay allocation-free — bench_test.go pins it.

// StageAction is a bypass stage's answer for one triplet.
type StageAction int

// Stage actions.
const (
	// StageSkip: the stage has no opinion; evaluation continues.
	StageSkip StageAction = iota
	// StageBypass: accept the delivery outright, skipping greylisting.
	StageBypass
	// StageRekey: greylist, but key the triplet's client component by
	// StageOutcome.Domain so every outbound IP of that domain shares
	// pending/passed/earned state.
	StageRekey
)

// String implements fmt.Stringer.
func (a StageAction) String() string {
	switch a {
	case StageSkip:
		return "skip"
	case StageBypass:
		return "bypass"
	case StageRekey:
		return "rekey"
	default:
		return "invalid"
	}
}

// StageOutcome is the result of evaluating one stage.
type StageOutcome struct {
	Action StageAction
	// Reason labels a StageBypass verdict (e.g. ReasonWhitelisted,
	// ReasonDNSWL). Ignored for other actions.
	Reason Reason
	// Domain is the greylisting key domain for StageRekey (the
	// SPF-evaluated sender domain). Ignored for other actions.
	Domain string
}

// Stage is one step of the bypass chain. Implementations must be safe
// for concurrent use and should answer from warmed caches without
// allocating — Eval sits on the per-RCPT hot path ahead of the triplet
// check. Returning a non-nil error marks the stage unhealthy for this
// attempt; the chain counts it and continues as if the stage had
// answered Skip (fail open).
type Stage interface {
	// Name labels the stage in metrics and traces ("whitelist",
	// "spf", "dnswl", "rdns").
	Name() string
	Eval(t Triplet) (StageOutcome, error)
}

// EnvelopeScoped is an optional marker a Stage implements when its Eval
// reads only the triplet's ClientIP and Sender, never its Recipient —
// the SPF, DNSWL and rDNS heuristics are properties of the connecting
// host and the envelope sender, not of a mailbox. CheckBatch then
// evaluates the stage once per run of consecutive attempts sharing
// (ClientIP, Sender) and reuses its answer, error included, for the
// rest of the run. A stage without the marker runs for every attempt.
type EnvelopeScoped interface {
	// EnvelopeScoped is never called; implementing it is the
	// declaration.
	EnvelopeScoped()
}

// stageCounters are one stage's cumulative outcomes, atomics so chain
// evaluation never takes a lock.
type stageCounters struct {
	hits   atomic.Uint64 // StageBypass answers
	rekeys atomic.Uint64 // StageRekey answers
	errors atomic.Uint64 // Eval errors (treated as Skip)
}

// StageStat is a snapshot of one stage's counters.
type StageStat struct {
	Name   string
	Hits   uint64
	Rekeys uint64
	Errors uint64
}

// Chain is an ordered bypass-stage list with per-stage counters. A
// Chain is immutable after NewChain; engines swap whole chains through
// SetChain, so evaluation needs no lock.
type Chain struct {
	stages []Stage
	counts []stageCounters
	// memoized[i] reports that stage i is EnvelopeScoped and has a
	// slot in an envelopeMemo.
	memoized []bool
}

// NewChain builds a chain evaluating stages in order.
func NewChain(stages ...Stage) *Chain {
	memoized := make([]bool, len(stages))
	for i, s := range stages {
		_, scoped := s.(EnvelopeScoped)
		memoized[i] = scoped && i < memoStages
	}
	return &Chain{stages: stages, counts: make([]stageCounters, len(stages)), memoized: memoized}
}

// memoStages bounds the chain positions an envelopeMemo covers; an
// envelope-scoped stage further down a longer chain runs per attempt.
const memoStages = 8

// envelopeMemo holds, for one run of attempts sharing (ClientIP,
// Sender), each envelope-scoped stage's answer. It lives on the batch's
// stack; reset it whenever the envelope changes.
type envelopeMemo struct {
	valid uint8 // bit i: out[i] and err[i] hold stage i's answer
	out   [memoStages]StageOutcome
	err   [memoStages]error
}

func (m *envelopeMemo) reset() { m.valid = 0 }

// eval runs the chain: first stage answering Bypass or Rekey wins; an
// erroring stage is counted and skipped. The second result is the index
// of the deciding stage, -1 when every stage skipped (chain-negative).
// A nil chain is chain-negative.
//
// With a memo, an envelope-scoped stage answers from it when it already
// ran for this envelope, and fills it otherwise; either way the answer
// is counted as if the stage had just given it. An attempt that an
// earlier stage decides never reaches, so never reads or fills, a later
// stage's slot.
func (c *Chain) eval(t Triplet, memo *envelopeMemo) (StageOutcome, int) {
	if c == nil {
		return StageOutcome{}, -1
	}
	for i, s := range c.stages {
		var out StageOutcome
		var err error
		switch {
		case memo == nil || !c.memoized[i]:
			out, err = s.Eval(t)
		case memo.valid&(1<<i) != 0:
			out, err = memo.out[i], memo.err[i]
		default:
			out, err = s.Eval(t)
			memo.out[i], memo.err[i] = out, err
			memo.valid |= 1 << i
		}
		if err != nil {
			c.counts[i].errors.Add(1)
			continue
		}
		switch out.Action {
		case StageBypass:
			c.counts[i].hits.Add(1)
			return out, i
		case StageRekey:
			if out.Domain == "" {
				continue // a rekey to nowhere is a skip
			}
			c.counts[i].rekeys.Add(1)
			return out, i
		}
	}
	return StageOutcome{}, -1
}

// Len returns the stage count (0 for a nil chain).
func (c *Chain) Len() int {
	if c == nil {
		return 0
	}
	return len(c.stages)
}

// StageName returns the i-th stage's name ("" out of range).
func (c *Chain) StageName(i int) string {
	if c == nil || i < 0 || i >= len(c.stages) {
		return ""
	}
	return c.stages[i].Name()
}

// StageStats snapshots every stage's counters in chain order.
func (c *Chain) StageStats() []StageStat {
	if c == nil {
		return nil
	}
	out := make([]StageStat, len(c.stages))
	for i, s := range c.stages {
		out[i] = StageStat{
			Name:   s.Name(),
			Hits:   c.counts[i].hits.Load(),
			Rekeys: c.counts[i].rekeys.Load(),
			Errors: c.counts[i].errors.Load(),
		}
	}
	return out
}

// whitelistStage adapts the static Whitelist to the stage contract; it
// is the default (and previously hardwired) first link of every chain.
type whitelistStage struct{ w *Whitelist }

// WhitelistStage wraps a static whitelist as a bypass stage answering
// Bypass/ReasonWhitelisted on a match. Chains built for an engine
// should lead with its own Whitelist so -whitelist-* flags keep
// working unchanged.
func WhitelistStage(w *Whitelist) Stage { return whitelistStage{w} }

func (s whitelistStage) Name() string { return "whitelist" }

func (s whitelistStage) Eval(t Triplet) (StageOutcome, error) {
	if s.w.Match(t) {
		return StageOutcome{Action: StageBypass, Reason: ReasonWhitelisted}, nil
	}
	return StageOutcome{}, nil
}
