// Package metrics is a small, dependency-free instrumentation registry
// for the mail pipeline: atomic counters, gauges, and fixed-bucket
// histograms, exposed in the Prometheus text exposition format
// (version 0.0.4). The paper's measurement campaigns (Sections IV–V) are
// instrumentation studies — per-family retry timelines, verdict
// breakdowns by threshold, months of greylist-log counters — and a
// production deployment of the same pipeline needs the equivalent
// signals exported at runtime. Every serving package (greylist,
// smtpserver, policyd, dnsserver, mtaqueue) registers its counters here,
// and the daemons serve the registry on an opt-in admin listener next to
// net/http/pprof (see admin.go).
//
// Design constraints, in order:
//
//  1. Zero hot-path cost. Counters and gauges are single atomics;
//     histograms are fixed arrays of atomic buckets. Nothing on the
//     observation path allocates, takes a lock, or formats a string —
//     the greylist known-passed Check benchmark stays at 0 allocs/op
//     with the registry attached.
//  2. Mirrors over shadows. Components that already keep atomic
//     counters (greylist.Stats) export them through CounterFunc/
//     GaugeFunc closures instead of double-counting, so the exposition
//     and the component's own Stats() can never disagree.
//  3. No dependencies. The exposition writer speaks the stable subset
//     of the Prometheus text format by hand; nothing outside the
//     standard library is imported.
//
// Metric and label names are never computed on the hot path: callers
// register one handle per label value up front (e.g. one counter per
// verdict reason) and observe through the handle.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (table sizes, active
// sessions, queue depth). Obtain gauges from a Registry.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap; it backs the
// histogram sum without locks or allocation.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets are cumulative in the
// exposition (Prometheus `le` semantics); observations are lock-free.
// Obtain histograms from a Registry.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
	// exemplars[i] remembers the trace ID of the most recent
	// ObserveExemplar landing in bucket i (0 = none), so a slow bucket
	// links to a concrete traced conversation. Kept out of the
	// /metrics exposition (WriteText stays byte-stable); dumped via
	// WriteExemplars on /debug/traces.
	exemplars []atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveDuration records d in seconds (the Prometheus base unit).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one observation and, when traceID is
// nonzero, remembers it as the bucket's exemplar: one more atomic
// store than an observation without one.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	// Linear scan: bucket counts are small (≤ ~16) and the branch
	// predictor does well on latency distributions; a binary search
	// costs more in practice and neither allocates.
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	if traceID != 0 && h.exemplars != nil {
		h.exemplars[i].Store(traceID)
	}
}

// ObserveDurationExemplar records d in seconds with a trace exemplar.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID uint64) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// Exemplars returns the per-bucket exemplar trace IDs (0 = none),
// indexed like the bounds with the +Inf bucket last.
func (h *Histogram) Exemplars() []uint64 {
	if h.exemplars == nil {
		return nil
	}
	out := make([]uint64, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// DefLatencyBuckets covers sub-100µs engine checks through multi-second
// network stalls — the spread between an in-memory verdict and a
// greylisting-deferred SMTP transaction.
var DefLatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// DefSizeBuckets suits small count distributions: pipelined RCPT bursts,
// policy request batches, queue retry attempts.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labelset within a family.
type series struct {
	labels string // rendered {k="v",...} or ""

	// exactly one of the following is set
	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind

	order  []string // label strings in registration order
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// format. It is safe for concurrent use; registration is idempotent
// (re-registering the same name and labels returns the existing handle,
// so shared engines and tests can register freely).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns ("reason", "first-seen", "shard", "3") into
// `{reason="first-seen",shard="3"}`. Panics on an odd count — label
// pairs are compile-time shape, not runtime data.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("metrics: odd label key/value count")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating if needed) the family and the series slot for
// name+labels, enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind metricKind, labelPairs []string) (*family, *series, bool) {
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	if s, ok := f.series[labels]; ok {
		return f, s, true
	}
	s := &series{labels: labels}
	f.series[labels] = s
	f.order = append(f.order, labels)
	return f, s, false
}

// Counter registers (or returns the existing) counter under name with
// the given label key/value pairs.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	_, s, existed := r.lookup(name, help, kindCounter, labelPairs)
	if existed && s.counter != nil {
		return s.counter
	}
	if s.counter == nil {
		s.counter = &Counter{}
		s.counterFunc = nil
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the mirror mechanism for components that already
// keep their own atomic counters. Re-registering replaces fn (the
// newest component instance wins).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labelPairs ...string) {
	_, s, _ := r.lookup(name, help, kindCounter, labelPairs)
	s.counter = nil
	s.counterFunc = fn
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	_, s, existed := r.lookup(name, help, kindGauge, labelPairs)
	if existed && s.gauge != nil {
		return s.gauge
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
		s.gaugeFunc = nil
	}
	return s.gauge
}

// GaugeFunc registers a gauge read from fn at exposition time.
// Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	_, s, _ := r.lookup(name, help, kindGauge, labelPairs)
	s.gauge = nil
	s.gaugeFunc = fn
}

// Histogram registers (or returns the existing) histogram with the given
// ascending bucket upper bounds (+Inf is implicit; nil means
// DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	_, s, existed := r.lookup(name, help, kindHistogram, labelPairs)
	if existed && s.hist != nil {
		return s.hist
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
	s.hist = h
	return h
}

// WriteExemplars renders every histogram bucket that has recorded an
// exemplar trace ID, as lines of the form
//
//	name_bucket{...,le="0.25"} trace_id=0123456789abcdef
//
// This is intentionally separate from WriteText: the /metrics
// exposition stays byte-stable for scrapers, while /debug/traces
// appends this dump so a slow bucket can be followed to the concrete
// conversation behind it.
func (r *Registry) WriteExemplars(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name, f := range r.fams {
		if f.kind == kindHistogram {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "histogram exemplars (bucket -> most recent trace id):")
	any := false
	for _, f := range fams {
		for _, labels := range f.order {
			s := f.series[labels]
			if s.hist == nil {
				continue
			}
			ex := s.hist.Exemplars()
			for i, id := range ex {
				if id == 0 {
					continue
				}
				bound := "+Inf"
				if i < len(s.hist.bounds) {
					bound = formatFloat(s.hist.bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s trace_id=%016x\n", f.name, mergeLE(labels, bound), id)
				any = true
			}
		}
	}
	if !any {
		fmt.Fprintln(bw, "(none recorded)")
	}
	return bw.Flush()
}

// WriteText renders every family in the Prometheus text exposition
// format, families sorted by name, series in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, labels := range f.order {
			s := f.series[labels]
			switch {
			case s.counter != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labels, strconv.FormatUint(s.counter.Value(), 10))
			case s.counterFunc != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labels, strconv.FormatUint(s.counterFunc(), 10))
			case s.gauge != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labels, strconv.FormatInt(s.gauge.Value(), 10))
			case s.gaugeFunc != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labels, formatFloat(s.gaugeFunc()))
			case s.hist != nil:
				writeHistogram(bw, f.name, labels, s.hist)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets with
// the le label merged into any existing labelset, then _sum and _count.
func writeHistogram(bw *bufio.Writer, name, labels string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(bw, "%s_bucket%s %d\n", name, mergeLE(labels, formatFloat(bound)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(bw, "%s_bucket%s %d\n", name, mergeLE(labels, "+Inf"), cum)
	fmt.Fprintf(bw, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(bw, "%s_count%s %d\n", name, labels, h.Count())
}

// mergeLE appends le="bound" to a rendered labelset.
func mergeLE(labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the exposition (the /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
