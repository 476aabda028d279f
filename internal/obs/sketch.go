package obs

import (
	"sync/atomic"

	"repro/internal/hdr"
)

// Sketch is a streaming quantile sketch: one atomic HDR bucket array
// per ring window. Record is lock-free and allocation-free — an atomic
// add into the value's bucket plus count/sum updates and a CAS max —
// so hot paths (greylist verdicts and their latencies) can feed it
// inline. Readers fold a window's buckets into an hdr.Hist at snapshot
// time; quantiles inherit hdr's ~3% worst-case quantization error with
// the exact max as a cap.
type Sketch struct {
	o    *Observatory
	name string
	unit string
	ring []sketchWin
}

// sketchWin is one window's accumulation state.
type sketchWin struct {
	counts [hdr.Buckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Name returns the sketch's registered name.
func (s *Sketch) Name() string { return s.name }

// Unit returns the sketch's descriptive unit ("ns", "ms").
func (s *Sketch) Unit() string { return s.unit }

// Record adds one observation to the current window.
func (s *Sketch) Record(v int64) {
	w := &s.ring[s.o.cur.Load()]
	w.counts[hdr.Index(v)].Add(1)
	w.count.Add(1)
	w.sum.Add(v)
	for {
		m := w.max.Load()
		if v <= m || w.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// fold converts slot's accumulation into h (merge on read).
func (s *Sketch) fold(slot int, h *hdr.Hist) {
	w := &s.ring[slot]
	for i := range w.counts {
		if n := w.counts[i].Load(); n > 0 {
			h.AddBucket(i, n)
		}
	}
	h.AddSum(w.sum.Load())
	h.ObserveMax(w.max.Load())
}

// reset clears a recycled window slot (rotation only).
func (w *sketchWin) reset() {
	for i := range w.counts {
		w.counts[i].Store(0)
	}
	w.count.Store(0)
	w.sum.Store(0)
	w.max.Store(0)
}
