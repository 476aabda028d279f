package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdr"
)

// Sampled sessions: the per-connection trace a daemon starts for a real
// TCP client. That client decides how long the trace grows (it can keep
// one connection busy with MAIL/RCPT/RSET for as long as it likes) and
// how many of them finish per second, so these traces, and only these,
// are bounded and tail-sampled in the style of Dapper (Sigelman et al.,
// 2010):
//
//   - Bound. A sampled session holds at most MaxSessionEvents events,
//     its outcome always last; the events past the cap are counted
//     (Dropped) instead of stored. The opening dialog, which dialect
//     fingerprinting reads, is what survives.
//   - Tail-sample. Events go into a pooled buffer. Finish keeps the
//     trace if it sent a 4xx or 5xx reply (a deferral, a refusal or a
//     protocol error), if it ran longer than the running p99 of recent
//     session durations, or if its ID falls in the 1-in-SampleEvery
//     sample of the rest. A kept trace is copied to an exact-size slice
//     and published; any other trace is counted (Finished, NotKept, the
//     family|outcome index) and its buffer goes back to the pool.
//
// A ring of N slots therefore holds at most N × MaxSessionEvents
// events, whatever the clients do.
const (
	// MaxSessionEvents caps the events of one sampled session,
	// including the terminal outcome.
	MaxSessionEvents = 256
	// SampleEvery keeps 1 in SampleEvery of the sampled sessions that
	// neither failed nor ran slow.
	SampleEvery = 64
)

// eventPool recycles sampled sessions' event buffers.
var eventPool = sync.Pool{New: func() any {
	b := make([]Event, 0, MaxSessionEvents)
	return &b
}}

// StartSampledSession is StartSession for a trace that is bounded and
// tail-sampled (see the constants above): the trace a server starts for
// each inbound connection whose client carries no trace of its own.
// Returns nil on a nil Tracer.
func (tr *Tracer) StartSampledSession(tags Tags, clientIP string, now func() time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.newTrace(tags, "", 0, now)
	t.sampled = true
	t.buf = eventPool.Get().(*[]Event)
	t.events = append((*t.buf)[:0], Event{Kind: KindAttempt, At: t.start, Name: "session", Detail: clientIP})
	return t
}

// settle applies the keep rule to a finished sampled session, under
// t.mu. It feeds the session's duration to the running p99 and hands
// the pooled buffer back: a kept trace keeps an exact-size copy of its
// events, any other keeps none.
func (t *Trace) settle() bool {
	slow := t.tracer.tail.observe(t.end.Sub(t.start))
	keep := t.flagged || slow || t.id%SampleEvery == 0
	used := len(t.events)
	if keep {
		evs := make([]Event, used)
		copy(evs, t.events)
		t.events = evs
		t.kept.Store(true)
	} else {
		t.events = nil
	}
	// Drop the string references before pooling. Only the used prefix
	// can hold any: every pooled buffer is zero past it.
	clear((*t.buf)[:used])
	eventPool.Put(t.buf)
	t.buf = nil
	return keep
}

// tailWindow tracks the running p99 of recent sampled-session durations
// in microseconds, in internal/hdr's log-linear buckets, so the
// threshold is within hdr.RelativeError (1/32) of the true p99; hdr's
// range covers sessions of up to about 38 hours. Every tailEvery
// observations the threshold is recomputed and the counts halved, so
// old sessions fade out. Until the first recompute nothing counts as
// slow.
type tailWindow struct {
	buckets   [hdr.Buckets]atomic.Uint64
	n         atomic.Uint64
	threshold atomic.Int64 // nanoseconds
	mu        sync.Mutex   // one recompute at a time
	// counts is recompute's snapshot of buckets, under mu. It is a
	// field, not a local: 8.7 KB on the stack would grow the stack of
	// every session goroutine that finishes a recompute.
	counts [hdr.Buckets]uint64
}

const tailEvery = 256

// slowThreshold returns the current slow-session cutoff (the running
// p99), or 0 before the window has seen enough sessions.
func (tr *Tracer) slowThreshold() time.Duration {
	if th := tr.tail.threshold.Load(); th != math.MaxInt64 {
		return time.Duration(th)
	}
	return 0
}

// observe records d and reports whether it exceeds the running p99.
func (w *tailWindow) observe(d time.Duration) bool {
	slow := int64(d) > w.threshold.Load()
	w.buckets[hdr.Index(d.Microseconds())].Add(1)
	if w.n.Add(1)%tailEvery == 0 {
		w.recompute()
	}
	return slow
}

// recompute sets the threshold to the upper edge of the bucket holding
// the 99th percentile, then halves every count.
func (w *tailWindow) recompute() {
	if !w.mu.TryLock() {
		return
	}
	defer w.mu.Unlock()
	counts := &w.counts
	var total uint64
	for i := range w.buckets {
		counts[i] = w.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return
	}
	rank := total - total/100 // the first rank at or above p99
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			w.threshold.Store(hdr.Upper(i) * int64(time.Microsecond))
			break
		}
	}
	for i := range w.buckets {
		if c := counts[i]; c > 0 {
			w.buckets[i].Add(^(c/2 - 1)) // subtract c/2
		}
	}
}
