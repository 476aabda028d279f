// Package hdr implements the log-linear HDR-style histogram behind the
// observatory's streaming sketches: 32 linear sub-buckets per power of
// two, covering values from 1 up to 2^(5+32) ≈ 1.37e11 with a
// worst-case quantization error of 1/32 (~3%) — the same layout family
// as HdrHistogram, which is what makes high percentiles (p99.9)
// trustworthy without storing raw samples. Values above the range are
// clamped into the top bucket and tracked exactly via the max.
//
// The histogram carries no unit of its own: the observatory's latency
// sketches record nanoseconds, its retry-delay sketches record
// milliseconds (greylist thresholds run minutes to days, far past the
// nanosecond range). Callers pick the unit; Index/Lower/Upper and the
// quantile math are unit-agnostic.
//
// Hist is deliberately NOT thread-safe: each writer owns a private
// instance (an observatory snapshot, one of perfbench's timers) and
// readers merge them, so the recording path is a couple of integer
// operations with no atomics. Concurrent writers keep per-bucket
// atomics of their own (see internal/obs) and fold into a Hist at read
// time with AddBucket/AddSum/ObserveMax.
package hdr

import "math/bits"

const (
	// SubBits is log2 of the linear sub-buckets per octave.
	SubBits = 5
	// SubCount is the number of linear sub-buckets per octave.
	SubCount = 1 << SubBits
	// Octaves is the number of power-of-two ranges above the linear
	// region.
	Octaves = 33
	// Buckets is the total bucket count.
	Buckets = SubCount + Octaves*SubCount
)

// RelativeError is the worst-case quantization error of a bucket edge
// relative to the true value: one linear sub-bucket per octave, 1/32.
const RelativeError = 1.0 / SubCount

// Index returns the bucket index for value v (negative values clamp
// to bucket 0, values beyond the range clamp to the top bucket).
func Index(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < SubCount {
		return int(u)
	}
	e := bits.Len64(u) - 1 // e >= SubBits
	if e-SubBits >= Octaves {
		return Buckets - 1
	}
	sub := (u >> (uint(e) - SubBits)) & (SubCount - 1)
	return SubCount + (e-SubBits)*SubCount + int(sub)
}

// Lower returns the inclusive lower bound of bucket i.
func Lower(i int) int64 {
	if i < SubCount {
		return int64(i)
	}
	i -= SubCount
	e := i/SubCount + SubBits
	sub := i % SubCount
	return int64(1)<<uint(e) + int64(sub)<<(uint(e)-SubBits)
}

// Upper returns the exclusive upper bound of bucket i.
func Upper(i int) int64 {
	if i < SubCount {
		return int64(i) + 1
	}
	j := i - SubCount
	e := j/SubCount + SubBits
	return Lower(i) + int64(1)<<(uint(e)-SubBits)
}

// Hist is a single-writer log-linear histogram.
type Hist struct {
	counts [Buckets]uint64
	count  uint64
	sum    int64
	max    int64
}

// Record adds one observation.
func (h *Hist) Record(v int64) {
	h.counts[Index(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// AddBucket folds n pre-bucketed observations into bucket i — the
// fold-in path for concurrent recorders that keep per-bucket atomics
// and convert to a Hist at read time. The caller accounts for the sum
// and max separately via AddSum and ObserveMax.
func (h *Hist) AddBucket(i int, n uint64) {
	if i < 0 || i >= Buckets || n == 0 {
		return
	}
	h.counts[i] += n
	h.count += n
}

// AddSum folds an externally accumulated sum of observations into h.
func (h *Hist) AddSum(sum int64) { h.sum += sum }

// ObserveMax raises h's exact maximum to at least v.
func (h *Hist) ObserveMax(v int64) {
	if v > h.max {
		h.max = v
	}
}

// BucketCount returns the observation count in bucket i.
func (h *Hist) BucketCount(i int) uint64 {
	if i < 0 || i >= Buckets {
		return 0
	}
	return h.counts[i]
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Max returns the exact maximum observation.
func (h *Hist) Max() int64 { return h.max }

// Sum returns the running total of observations.
func (h *Hist) Sum() int64 { return h.sum }

// Mean returns the mean observation.
func (h *Hist) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / int64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) —
// the exclusive upper edge of the bucket holding the target rank, so
// the reported p99 is never smaller than the true p99. The exact max
// caps the answer.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			if i == Buckets-1 {
				// Clamp bucket: its nominal edge understates
				// out-of-range observations, so fall back to the exact
				// maximum.
				return h.max
			}
			up := Upper(i)
			if up > h.max {
				up = h.max
			}
			return up
		}
	}
	return h.max
}
