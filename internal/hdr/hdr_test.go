package hdr

import (
	"math/bits"
	"math/rand"
	"testing"
)

// Reference copies of the bucket formulas as the load generator shipped
// them before this package was extracted — the equivalence pin: if the
// package ever drifts from these, the soak percentiles EXPERIMENTS.md
// keeps stop being comparable.
func refIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 32 {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e-5 >= 33 {
		return 32 + 33*32 - 1
	}
	sub := (v >> (uint(e) - 5)) & 31
	return 32 + (e-5)*32 + int(sub)
}

func refLower(i int) int64 {
	if i < 32 {
		return int64(i)
	}
	i -= 32
	e := i/32 + 5
	sub := i % 32
	return int64(1)<<uint(e) + int64(sub)<<(uint(e)-5)
}

func refUpper(i int) int64 {
	if i < 32 {
		return int64(i) + 1
	}
	j := i - 32
	e := j/32 + 5
	return refLower(i) + int64(1)<<(uint(e)-5)
}

func TestLayoutMatchesLoadgenOriginal(t *testing.T) {
	if Buckets != 32+33*32 {
		t.Fatalf("Buckets = %d, want %d", Buckets, 32+33*32)
	}
	for i := 0; i < Buckets; i++ {
		if got, want := Lower(i), refLower(i); got != want {
			t.Fatalf("Lower(%d) = %d, want %d", i, got, want)
		}
		if got, want := Upper(i), refUpper(i); got != want {
			t.Fatalf("Upper(%d) = %d, want %d", i, got, want)
		}
	}
	// Every bucket edge maps back into its own bucket, and the probe
	// set covers the linear region, octave transitions, and the clamp.
	probes := []int64{-5, 0, 1, 31, 32, 33, 63, 64, 1000, 1<<20 + 7, 1 << 37, 1<<38 - 1, 1 << 38, 1 << 62, 1<<63 - 1}
	for i := 0; i < Buckets; i++ {
		probes = append(probes, Lower(i), Upper(i)-1)
	}
	for _, v := range probes {
		if got, want := Index(v), refIndex(v); got != want {
			t.Fatalf("Index(%d) = %d, want %d", v, got, want)
		}
		if i := Index(v); v >= 0 && i < Buckets-1 {
			if v < Lower(i) || v >= Upper(i) {
				t.Fatalf("value %d landed in bucket %d = [%d,%d)", v, i, Lower(i), Upper(i))
			}
		}
	}
}

func TestBucketEdgesContiguous(t *testing.T) {
	for i := 1; i < Buckets; i++ {
		if Lower(i) != Upper(i-1) {
			t.Fatalf("gap between buckets %d and %d: upper %d, lower %d", i-1, i, Upper(i-1), Lower(i))
		}
	}
}

func TestQuantileBounds(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 10000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		exact := int64(q * 10000)
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("Quantile(%v) = %d understates exact %d", q, got, exact)
		}
		if max := int64(float64(exact)*(1+2*RelativeError)) + 2; got > max {
			t.Fatalf("Quantile(%v) = %d exceeds %d (exact %d + bucket error)", q, got, max, exact)
		}
	}
	if h.Quantile(1.0) != h.Max() {
		t.Fatalf("Quantile(1.0) = %d, want exact max %d", h.Quantile(1.0), h.Max())
	}
	// A value past the range clamps into the top bucket; quantiles that
	// land there report the exact max, not the bucket's nominal edge.
	var clamped Hist
	clamped.Record(1 << 50)
	if clamped.Max() != 1<<50 || clamped.Quantile(0.99) != 1<<50 {
		t.Fatalf("clamped value lost exactness: max %d, q99 %d", clamped.Max(), clamped.Quantile(0.99))
	}
}

func TestMergeEqualsSingleWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var whole Hist
	parts := make([]Hist, 4)
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(1 << 40) // includes out-of-range clamps
		whole.Record(v)
		parts[i%len(parts)].Record(v)
	}
	var merged Hist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatalf("merged histogram differs from single-writer histogram")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, single-writer %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestAddBucketFoldEqualsRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var direct Hist
	var buckets [Buckets]uint64
	var sum, max int64
	for i := 0; i < 50000; i++ {
		v := rng.Int63n(1 << 30)
		direct.Record(v)
		buckets[Index(v)]++
		sum += v
		if v > max {
			max = v
		}
	}
	var folded Hist
	for i, n := range buckets {
		folded.AddBucket(i, n)
	}
	folded.AddSum(sum)
	folded.ObserveMax(max)
	if folded != direct {
		t.Fatalf("bucket-folded histogram differs from Record path")
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*997 + 13)
	}
}
