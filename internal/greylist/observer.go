package greylist

// Observer receives every decided verdict on the hot path — the feed
// for the live observatory (internal/obs), which rolls verdicts into
// windowed sketches and heavy-hitter sets. Implementations MUST be
// safe for concurrent use and MUST NOT allocate on the steady-state
// path or block: they run inline inside Check/CheckBatch under the
// engine's latency budget (the bypass hot-path allocation tests pin
// the observed paths at 0 allocs/op).
//
// latencyNs is the engine-side decision latency. Single checks carry
// their own measurement; batch verdicts share the batch's elapsed time
// divided by its size (the per-RCPT amortized cost, matching how the
// batch path amortizes locking).
type Observer interface {
	ObserveVerdict(t Triplet, v Verdict, latencyNs int64)
}

// SetObserver installs (or, with nil, removes) the engine's verdict
// observer. Safe to call while checks are in flight: the pointer is
// swapped atomically and in-flight checks finish against whichever
// observer they loaded.
func (g *Greylister) SetObserver(o Observer) {
	if o == nil {
		g.obsv.Store(nil)
		return
	}
	g.obsv.Store(&o)
}
