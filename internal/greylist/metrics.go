package greylist

import (
	"repro/internal/metrics"
)

// instruments holds the optional latency/batch histograms installed by
// Register. The hot path reaches them through one atomic pointer load;
// a nil pointer (no registry attached) costs exactly that load.
type instruments struct {
	checkSeconds *metrics.Histogram
	batchSeconds *metrics.Histogram
	batchSize    *metrics.Histogram
	saveSeconds  *metrics.Histogram
	loadSeconds  *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		checkSeconds: reg.Histogram("greylist_check_seconds",
			"Wall-clock latency of one greylisting check.", nil),
		batchSeconds: reg.Histogram("greylist_batch_seconds",
			"Wall-clock latency of one CheckBatch call.", nil),
		batchSize: reg.Histogram("greylist_batch_size",
			"Triplets decided per CheckBatch call.", metrics.DefSizeBuckets),
		saveSeconds: reg.Histogram("greylist_snapshot_save_seconds",
			"Wall-clock duration of state snapshot saves.", nil),
		loadSeconds: reg.Histogram("greylist_snapshot_load_seconds",
			"Wall-clock duration of state snapshot loads.", nil),
	}
}

// verdict reason label -> Stats accessor; the exposition mirrors the
// engine's own atomic counters, so greylist_verdicts_total can never
// disagree with Greylister.Stats (and a lab campaign's Table I/II
// verdict counts come from the same registers a daemon exports).
var reasonMirrors = []struct {
	reason string
	value  func(Stats) uint64
}{
	{"first-seen", func(s Stats) uint64 { return s.DeferredNew }},
	{"too-soon", func(s Stats) uint64 { return s.DeferredEarly }},
	{"window-expired", func(s Stats) uint64 { return s.DeferredExpired }},
	{"retry-accepted", func(s Stats) uint64 { return s.PassedRetry }},
	{"known-triplet", func(s Stats) uint64 { return s.PassedKnown }},
	{"whitelisted", func(s Stats) uint64 { return s.PassedWhitelist }},
	{"auto-whitelisted", func(s Stats) uint64 { return s.PassedAutoClient }},
	{"dnswl-listed", func(s Stats) uint64 { return s.PassedDNSWL }},
	{"rdns-mailserver", func(s Stats) uint64 { return s.PassedRDNS }},
	{"earned-whitelist", func(s Stats) uint64 { return s.PassedEarned }},
	{"bypass-other", func(s Stats) uint64 { return s.PassedBypassOther }},
}

// registerMirror exports the cumulative Stats counters through stats.
func registerMirror(reg *metrics.Registry, stats func() Stats) {
	reg.CounterFunc("greylist_checks_total",
		"Greylisting checks performed.",
		func() uint64 { return stats().Checks })
	for _, m := range reasonMirrors {
		m := m
		reg.CounterFunc("greylist_verdicts_total",
			"Greylisting verdicts by reason.",
			func() uint64 { return m.value(stats()) },
			"reason", m.reason)
	}
	reg.CounterFunc("greylist_triplets_recorded_total",
		"New triplets recorded as pending.",
		func() uint64 { return stats().TripletsRecorded })
	reg.CounterFunc("greylist_triplets_whitelisted_total",
		"Triplets promoted to the passed table.",
		func() uint64 { return stats().TripletsWhitelist })
	reg.CounterFunc("greylist_gc_sweeps_total",
		"GC sweeps over the state tables.",
		func() uint64 { return stats().GCSweeps })
	reg.CounterFunc("greylist_gc_dropped_total",
		"Expired records dropped by GC.",
		func() uint64 { return stats().GCDropped })
	reg.CounterFunc("greylist_spf_rekeyed_total",
		"Checks keyed by SPF domain instead of client IP.",
		func() uint64 { return stats().SPFRekeyed })
	reg.CounterFunc("greylist_earned_granted_total",
		"Earned-whitelist entries granted.",
		func() uint64 { return stats().EarnedGranted })
}

// registerChain exports per-stage bypass-chain counters. The stage set
// is read at registration time (install chains with SetChain before
// Register); the counters themselves read live through chain(), so a
// later SetChain keeping the same stage names keeps reporting.
func registerChain(reg *metrics.Registry, chain func() *Chain) {
	statFor := func(name string) StageStat {
		for _, st := range chain().StageStats() {
			if st.Name == name {
				return st
			}
		}
		return StageStat{}
	}
	for _, st := range chain().StageStats() {
		name := st.Name
		reg.CounterFunc("greylist_bypass_stage_total",
			"Bypass-chain stage outcomes by stage and action.",
			func() uint64 { return statFor(name).Hits },
			"stage", name, "action", "bypass")
		reg.CounterFunc("greylist_bypass_stage_total",
			"Bypass-chain stage outcomes by stage and action.",
			func() uint64 { return statFor(name).Rekeys },
			"stage", name, "action", "rekey")
		reg.CounterFunc("greylist_bypass_stage_errors_total",
			"Bypass-chain stage evaluation errors (failed open).",
			func() uint64 { return statFor(name).Errors },
			"stage", name)
	}
}

// Register exports the engine's counters, table-size gauges, and latency
// histograms into reg under the greylist_* namespace. Counters mirror
// the engine's existing atomics (no double counting); histograms are
// observed on the hot path without allocating, preserving the
// known-passed Check at 0 allocs/op.
func (g *Greylister) Register(reg *metrics.Registry) {
	registerMirror(reg, g.Stats)
	reg.GaugeFunc("greylist_pending_triplets",
		"Deferred triplets awaiting their retry.",
		func() float64 { return float64(g.PendingCount()) })
	reg.GaugeFunc("greylist_passed_triplets",
		"Whitelisted (passed) triplets.",
		func() float64 { return float64(g.PassedCount()) })
	reg.GaugeFunc("greylist_autowl_clients",
		"Auto-whitelist client records.",
		func() float64 { return float64(g.ClientCount()) })
	reg.GaugeFunc("greylist_earned_entries",
		"Earned-whitelist records.",
		func() float64 { return float64(g.EarnedCount()) })
	registerChain(reg, g.Chain)
	g.inst.Store(newInstruments(reg))
}
