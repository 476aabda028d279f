// Package trace is a dependency-free span/event tracing subsystem for
// the message path: bot attempt → netsim dial → DNS MX walk → SMTP
// dialog → greylist/policy verdict → retry scheduling.
//
// A *Trace is a context-style handle carried alongside one SMTP
// conversation (or one queued message). Every method on *Trace and
// every Start* constructor on *Tracer is nil-safe: with tracing off
// the handle is nil and each call is a single pointer comparison —
// the disabled path is ≤1 ns/op and 0 allocs/op (see
// BenchmarkDisabled* and BENCH_trace.json). This mirrors the
// nil-until-Register pattern of internal/metrics.
//
// Completed traces are published to a fixed-capacity lock-free ring
// buffer (newest traces evict oldest) and counted in a family×outcome
// index. They can be exported as sorted JSONL (WriteJSONL) or browsed
// live at /debug/traces (Handler).
//
// One kind of trace is bounded and tail-sampled instead: a sampled
// session (StartSampledSession), the per-connection trace a daemon
// starts for a real TCP client, whose length that client controls.
// See sample.go.
//
// The package deliberately imports nothing above the standard library
// so every layer — netsim, dnsresolver, smtpclient, smtpserver,
// greylist, policyd, mtaqueue, botnet — can record into a trace
// without import cycles.
package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event within a trace.
type Kind uint8

// Event kinds, in rough message-path order.
const (
	// KindAttempt marks the start of a delivery attempt (bot or MTA).
	KindAttempt Kind = iota + 1
	// KindDial records a simulated TCP dial and its outcome.
	KindDial
	// KindMX records one resolved MX host during the DNS walk (or the
	// walk's failure) — the nolisting fallthrough is visible as a
	// refused KindDial on the primary followed by a KindDial on the
	// secondary.
	KindMX
	// KindVerb records one SMTP verb: command, reply code, duration.
	KindVerb
	// KindGreylist records a greylisting verdict: triplet key,
	// decision, reason, wait remaining, attempt count.
	KindGreylist
	// KindPolicy records a policy-delegation (policyd) action.
	KindPolicy
	// KindQueue records retry scheduling (next attempt time, bounce).
	KindQueue
	// KindOutcome is the terminal event appended by Finish.
	KindOutcome
	// KindCheckpoint records scan-pipeline durability progress: a
	// verdict chunk flushed, a shard resumed, a partial chunk rescanned.
	KindCheckpoint
	// KindBypass records a greylisting bypass-chain stage match: the
	// deciding stage's name and its action ("bypass" or "rekey").
	KindBypass
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindAttempt:
		return "attempt"
	case KindDial:
		return "dial"
	case KindMX:
		return "mx"
	case KindVerb:
		return "verb"
	case KindGreylist:
		return "greylist"
	case KindPolicy:
		return "policy"
	case KindQueue:
		return "queue"
	case KindOutcome:
		return "outcome"
	case KindCheckpoint:
		return "checkpoint"
	case KindBypass:
		return "bypass"
	default:
		return "unknown"
	}
}

// Event is one step of a traced conversation. The meaning of Name,
// Detail, Code and Dur depends on Kind:
//
//	dial      Name=remote addr         Detail=ok|error text
//	mx        Name=MX host             Detail=addrs/implicit note  Code=preference
//	verb      Name=SMTP verb           Detail=reply text           Code=reply code  Dur=verb latency
//	greylist  Name=decision            Detail=key + reason         Code=attempts    Dur=wait remaining
//	bypass    Name=chain stage         Detail=bypass|rekey
//	policy    Name=action              Detail=free text
//	queue     Name=retry-scheduled|…   Detail=free text            Dur=delay
//	outcome   Name=final outcome
type Event struct {
	Kind Kind
	// lazy marks a greylist event whose Detail holds only the reason,
	// and triplet the key parts, until render.
	lazy   bool
	At     time.Time
	Name   string
	Detail string
	Code   int
	Dur    time.Duration
	// triplet is a lazy greylist event's (ip, sender, rcpt).
	triplet [3]string
}

// render formats a lazy greylist event's Detail as
// "(ip, sender, rcpt) reason", the form report.Attribution parses.
// Every read path (Events, Record, /debug/traces) renders, so readers
// never see an unformatted event.
func (e *Event) render() {
	if !e.lazy {
		return
	}
	e.Detail = "(" + e.triplet[0] + ", " + e.triplet[1] + ", " + e.triplet[2] + ") " + e.Detail
	e.triplet = [3]string{}
	e.lazy = false
}

// Tags identify which experiment cell a trace belongs to. Family and
// Defense drive the /debug/traces filters and the attribution report.
type Tags struct {
	Family    string
	Defense   string
	Sample    int
	Threshold time.Duration
}

// Trace is an append-only sequence of events for one conversation,
// carrying a 64-bit ID. The zero value is not used directly; traces
// are created by a Tracer's Start* methods, and a nil *Trace is the
// valid "tracing off" handle — every method no-ops on it.
//
// A trace may be recorded into from two goroutines at once (the bot's
// client side and the simulated server's session goroutine share one
// handle via the connection), so recording takes a per-trace mutex.
// The nil fast path stays lock-free.
type Trace struct {
	id     uint64
	tracer *Tracer
	// now is the clock events are stamped with. Traces carry their
	// own clock closure because the package cannot import simtime and
	// a parallel lab run drives one independent virtual clock per
	// spec.
	now func() time.Time

	mu        sync.Mutex
	tags      Tags
	recipient string
	try       int
	start     time.Time
	end       time.Time
	outcome   string
	done      bool
	events    []Event

	// The sampling state of a sampled session (see sample.go). sampled
	// is fixed at start; a trace without it is unbounded and always
	// published.
	sampled bool
	// flagged records a 4xx or 5xx verb reply: the trace is kept.
	flagged bool
	// dropped counts events refused by the MaxSessionEvents cap.
	dropped int
	// kept is set by Finish when a sampled trace enters the ring.
	kept atomic.Bool
	// buf is the pooled event buffer a sampled trace records into
	// until Finish copies or recycles it.
	buf *[]Event
}

// ID returns the trace's 64-bit identifier (0 for a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Tags returns the experiment tags the trace was started with.
func (t *Trace) Tags() Tags {
	if t == nil {
		return Tags{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tags
}

// Recipient returns the recipient the traced attempt targets.
func (t *Trace) Recipient() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recipient
}

// Try returns the 0-based retry index of the latest attempt recorded.
func (t *Trace) Try() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.try
}

// Attempts returns how many delivery attempts the trace covers
// (Try+1; a multi-attempt mtaqueue trace advances Try per attempt).
func (t *Trace) Attempts() int {
	if t == nil {
		return 0
	}
	return t.Try() + 1
}

// Outcome returns the outcome passed to Finish ("" while live).
func (t *Trace) Outcome() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outcome
}

// Start returns when the trace was started.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start
}

// End returns when the trace was finished (zero while live).
func (t *Trace) End() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.end
}

// Events returns a copy of the recorded events.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	for i := range out {
		out[i].render()
	}
	return out
}

// Dropped returns how many events the MaxSessionEvents cap refused
// (always 0 for an unsampled trace).
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Kept reports whether the trace is published to its tracer's ring
// when it finishes: always for an unsampled trace, and for a sampled
// session only once Finish has decided to keep it. Exemplars should
// carry only kept IDs, or /debug/traces?id= cannot resolve them.
func (t *Trace) Kept() bool {
	if t == nil {
		return false
	}
	return !t.sampled || t.kept.Load()
}

// ExemplarID returns the ID a latency histogram may remember for this
// trace: its ID if it is kept (see Kept), else 0, which records no
// exemplar.
func (t *Trace) ExemplarID() uint64 {
	if t.Kept() {
		return t.id
	}
	return 0
}

// eventCount returns how many events the trace holds, without copying.
func (t *Trace) eventCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// SetTry advances the trace to retry index try (used by multi-attempt
// message traces).
func (t *Trace) SetTry(try int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.try = try
	t.mu.Unlock()
}

// Add records a raw event. The typed helpers below are preferred.
func (t *Trace) Add(kind Kind, name, detail string, code int, dur time.Duration) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	if e := t.slot(kind, code); e != nil {
		e.At, e.Name, e.Detail, e.Dur = at, name, detail, dur
	}
	t.mu.Unlock()
}

// slot appends a zero event of kind under t.mu and returns it for the
// caller to fill, or returns nil when the trace is finished or a
// sampled session has reached its cap (the event is then counted as
// dropped). A sampled session keeps at most MaxSessionEvents-1 events
// before its outcome; a 4xx or 5xx verb reply flags it for keeping
// even when the event itself is dropped. Filling the slot in place
// copies no Event.
func (t *Trace) slot(kind Kind, code int) *Event {
	if t.done {
		return nil
	}
	if t.sampled {
		if kind == KindVerb && code >= 400 {
			t.flagged = true
		}
		if len(t.events) >= MaxSessionEvents-1 {
			t.dropped++
			return nil
		}
	}
	t.events = append(t.events, Event{Kind: kind, Code: code})
	return &t.events[len(t.events)-1]
}

// Attempt records the start of delivery attempt try (0-based).
//
// The helpers below keep their nil check in a wrapper small enough to
// inline, so the disabled (nil-handle) path costs one pointer
// comparison — the ≤1 ns/op contract proven by BenchmarkDisabled*.
func (t *Trace) Attempt(try int, detail string) {
	if t == nil {
		return
	}
	t.attempt(try, detail)
}

func (t *Trace) attempt(try int, detail string) {
	t.SetTry(try)
	t.Add(KindAttempt, "attempt", detail, try, 0)
}

// Dial records a dial of raddr; err nil means the connection opened.
func (t *Trace) Dial(raddr string, err error) {
	if t == nil {
		return
	}
	t.dial(raddr, err)
}

func (t *Trace) dial(raddr string, err error) {
	detail := "ok"
	if err != nil {
		detail = err.Error()
	}
	t.Add(KindDial, raddr, detail, 0, 0)
}

// Checkpoint records scan-pipeline durability progress: name is the
// step ("chunk-flush", "resume", "rescan"), detail carries the shard
// and index range, code a step-defined count, and dur how long the
// step took.
func (t *Trace) Checkpoint(name, detail string, code int, dur time.Duration) {
	if t == nil {
		return
	}
	t.Add(KindCheckpoint, name, detail, code, dur)
}

// MX records one host of the MX walk: its preference, how many
// addresses resolved, and whether it is an implicit (RFC 5321 §5.1)
// fallback A record.
func (t *Trace) MX(host string, pref, addrs int, implicit bool) {
	if t == nil {
		return
	}
	t.mx(host, pref, addrs, implicit)
}

func (t *Trace) mx(host string, pref, addrs int, implicit bool) {
	detail := plural(addrs, "addr")
	if implicit {
		detail += " implicit"
	}
	t.Add(KindMX, host, detail, pref, 0)
}

// MXError records a failed MX walk for domain.
func (t *Trace) MXError(domain string, err error) {
	if t == nil {
		return
	}
	t.Add(KindMX, domain, "error: "+err.Error(), -1, 0)
}

// Verb records one SMTP verb exchange with its reply code and
// latency, stamped with at: the caller passes the clock read that
// ended the verb's duration, so recording costs no read of its own.
func (t *Trace) Verb(at time.Time, verb string, code int, detail string, dur time.Duration) {
	if t == nil {
		return
	}
	t.verb(at, verb, code, detail, dur)
}

// verb is kept out of line so that Verb, the nil fast path, inlines.
//
//go:noinline
func (t *Trace) verb(at time.Time, verb string, code int, detail string, dur time.Duration) {
	t.mu.Lock()
	if e := t.slot(KindVerb, code); e != nil {
		e.At, e.Name, e.Detail, e.Dur = at, verb, detail, dur
	}
	t.mu.Unlock()
}

// Greylist records a greylisting verdict for the triplet (ip, sender,
// rcpt) at at (the engine's decision time): the decision, its reason,
// the wait remaining before a retry would pass, and how many attempts
// the triplet has made. The event stores the three strings and formats
// its "(ip, sender, rcpt) reason" detail only when it is read, so
// recording a verdict allocates nothing.
func (t *Trace) Greylist(at time.Time, decision, reason, ip, sender, rcpt string, wait time.Duration, attempts int) {
	if t == nil {
		return
	}
	t.greylist(at, decision, reason, ip, sender, rcpt, wait, attempts)
}

// greylist is kept out of line so that Greylist inlines.
//
//go:noinline
func (t *Trace) greylist(at time.Time, decision, reason, ip, sender, rcpt string, wait time.Duration, attempts int) {
	t.mu.Lock()
	if e := t.slot(KindGreylist, attempts); e != nil {
		e.lazy, e.At, e.Name, e.Detail, e.Dur = true, at, decision, reason, wait
		e.triplet = [3]string{ip, sender, rcpt}
	}
	t.mu.Unlock()
}

// Bypass records, at at, the greylisting bypass-chain stage that
// decided this attempt and its action ("bypass" accepts outright,
// "rekey" switches the greylist key to the sender's SPF domain).
func (t *Trace) Bypass(at time.Time, stage, action string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e := t.slot(KindBypass, 0); e != nil {
		e.At, e.Name, e.Detail = at, stage, action
	}
	t.mu.Unlock()
}

// Policy records a policy-delegation action (e.g. "defer_if_permit").
func (t *Trace) Policy(action, detail string) {
	if t == nil {
		return
	}
	t.Add(KindPolicy, action, detail, 0, 0)
}

// Queue records a retry-scheduling decision; delay is how far in the
// future the next attempt was scheduled (0 when none).
func (t *Trace) Queue(name, detail string, delay time.Duration) {
	if t == nil {
		return
	}
	t.Add(KindQueue, name, detail, 0, delay)
}

// Finish stamps the trace's end, appends the terminal outcome event
// and publishes the trace to its Tracer's ring buffer, index and
// sinks. A sampled session is published only if the keep rule holds
// (see sample.go); otherwise it is counted and its events recycled.
// Finish is idempotent; events recorded after it are dropped.
func (t *Trace) Finish(outcome string) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.outcome = outcome
	t.end = at
	t.events = append(t.events, Event{Kind: KindOutcome, At: at, Name: outcome})
	keep := true
	if t.sampled {
		keep = t.settle()
	}
	tracer := t.tracer
	t.mu.Unlock()
	if tracer == nil {
		return
	}
	if keep {
		tracer.finish(t)
	} else {
		tracer.skip(t)
	}
}

// Tracer creates traces and collects finished ones. A nil *Tracer is
// the valid "tracing off" state: its Start* methods return nil
// traces. Tracers are safe for concurrent use.
type Tracer struct {
	seq   atomic.Uint64
	ring  *Ring
	sinks atomic.Pointer[[]func(*Trace)]
	// index counts finished traces per "family|outcome", kept or not.
	// Lookups build the key on the stack, so counting allocates only
	// the first time a key appears.
	indexMu  sync.RWMutex
	index    map[string]*atomic.Uint64
	finished atomic.Uint64
	// notKept counts sampled sessions Finish did not publish, and tail
	// tracks their running duration p99 (see sample.go).
	notKept atomic.Uint64
	tail    tailWindow
}

// New returns a Tracer whose ring buffer keeps the most recent
// capacity finished traces (capacity is clamped to at least 1).
func New(capacity int) *Tracer {
	tr := &Tracer{ring: NewRing(capacity), index: make(map[string]*atomic.Uint64)}
	tr.tail.threshold.Store(math.MaxInt64) // nothing is slow until the window fills
	return tr
}

// splitmix64 spreads the sequential trace counter over the 64-bit ID
// space so IDs are useful exemplar labels.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (tr *Tracer) newTrace(tags Tags, recipient string, try int, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	t := &Trace{
		id:        splitmix64(tr.seq.Add(1)),
		tracer:    tr,
		now:       now,
		tags:      tags,
		recipient: recipient,
		try:       try,
		start:     now(),
	}
	return t
}

// StartAttempt begins a trace for one delivery attempt (retry index
// try) to recipient. now is the clock events are stamped with (nil =
// wall clock); lab runs pass their spec's virtual clock. Returns nil
// on a nil Tracer.
func (tr *Tracer) StartAttempt(tags Tags, recipient string, try int, now func() time.Time) *Trace {
	if tr == nil {
		return nil
	}
	return tr.startAttempt(tags, recipient, try, now)
}

func (tr *Tracer) startAttempt(tags Tags, recipient string, try int, now func() time.Time) *Trace {
	t := tr.newTrace(tags, recipient, try, now)
	t.events = append(t.events, Event{Kind: KindAttempt, At: t.start, Name: "attempt", Code: try})
	return t
}

// StartMessage begins a multi-attempt trace for a queued message
// (mtaqueue); attempts advance via SetTry. Returns nil on a nil
// Tracer.
func (tr *Tracer) StartMessage(tags Tags, recipient string, now func() time.Time) *Trace {
	if tr == nil {
		return nil
	}
	return tr.newTrace(tags, recipient, 0, now)
}

// StartSession begins a server-originated trace for an inbound SMTP
// or policy session from clientIP — used by daemons whose clients
// carry no trace of their own. Returns nil on a nil Tracer.
func (tr *Tracer) StartSession(tags Tags, clientIP string, now func() time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.newTrace(tags, "", 0, now)
	t.events = append(t.events, Event{Kind: KindAttempt, At: t.start, Name: "session", Detail: clientIP})
	return t
}

// AddSink registers fn to be called with every finished trace (after
// it is placed in the ring). Sinks must be fast and are called from
// the finishing goroutine.
func (tr *Tracer) AddSink(fn func(*Trace)) {
	if tr == nil || fn == nil {
		return
	}
	for {
		old := tr.sinks.Load()
		var next []func(*Trace)
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, fn)
		if tr.sinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// finish publishes a kept trace: ring, index, sinks.
func (tr *Tracer) finish(t *Trace) {
	tr.ring.Put(t)
	tr.finished.Add(1)
	tr.count(t)
	if sinks := tr.sinks.Load(); sinks != nil {
		for _, fn := range *sinks {
			fn(t)
		}
	}
}

// skip accounts a sampled session Finish did not keep. It is counted
// as finished and in the index, but never reaches the ring or sinks.
func (tr *Tracer) skip(t *Trace) {
	tr.finished.Add(1)
	tr.notKept.Add(1)
	tr.count(t)
}

// count bumps t's family|outcome index entry.
func (tr *Tracer) count(t *Trace) {
	family, outcome := t.tags.Family, t.Outcome()
	var buf [64]byte
	k := append(append(append(buf[:0], family...), '|'), outcome...)
	tr.indexMu.RLock()
	c := tr.index[string(k)]
	tr.indexMu.RUnlock()
	if c == nil {
		key := string(k)
		tr.indexMu.Lock()
		if c = tr.index[key]; c == nil {
			c = new(atomic.Uint64)
			tr.index[key] = c
		}
		tr.indexMu.Unlock()
	}
	c.Add(1)
}

// Finished returns how many traces have completed over the tracer's
// lifetime (including ones the ring has since evicted and sampled
// sessions that were not kept).
func (tr *Tracer) Finished() uint64 {
	if tr == nil {
		return 0
	}
	return tr.finished.Load()
}

// NotKept returns how many sampled sessions finished without being
// kept (their events recycled, never in the ring).
func (tr *Tracer) NotKept() uint64 {
	if tr == nil {
		return 0
	}
	return tr.notKept.Load()
}

// Len returns how many finished traces the ring currently holds.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	return tr.ring.Len()
}

// Cap returns the ring capacity.
func (tr *Tracer) Cap() int {
	if tr == nil {
		return 0
	}
	return tr.ring.Cap()
}

// Snapshot returns the retained finished traces, oldest first.
func (tr *Tracer) Snapshot() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.ring.Snapshot()
}

// Counts returns the family|outcome index: how many traces finished
// per family and outcome, keyed "family|outcome".
func (tr *Tracer) Counts() map[string]uint64 {
	if tr == nil {
		return nil
	}
	tr.indexMu.RLock()
	defer tr.indexMu.RUnlock()
	out := make(map[string]uint64, len(tr.index))
	for k, c := range tr.index {
		out[k] = c.Load()
	}
	return out
}

// Carrier is implemented by connections that carry the client's trace
// across a simulated network, letting the server side record into the
// same per-attempt trace without an import cycle.
type Carrier interface {
	Trace() *Trace
}

// FromConn extracts the trace carried by a connection, or nil if the
// connection carries none.
func FromConn(c any) *Trace {
	if carrier, ok := c.(Carrier); ok {
		return carrier.Trace()
	}
	return nil
}

func plural(n int, what string) string {
	if n == 1 {
		return "1 " + what
	}
	return itoa(n) + " " + what + "s"
}

// itoa avoids strconv in the one cold spot that needs it — keeps the
// import surface tiny.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
