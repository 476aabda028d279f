package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// fetchLedger reads the traced assembly's cumulative seam totals.
func fetchLedger(addr string, final bool) (*ledgerSnapshot, error) {
	path := "/ledger"
	if final {
		path += "?final=1"
	}
	b, err := fetch(addr, path)
	if err != nil {
		return nil, err
	}
	var s ledgerSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &s, nil
}

// perLayer turns the traced pass's seam totals (between its two
// scrapes), its /metrics deltas, greylistd's CPU profile and both
// passes' end-to-end figures into the per-layer metrics.
func perLayer(gd, tw *passResult) (map[string]metric, error) {
	a, b := tw.ledger0, tw.ledger1
	if a == nil || b == nil {
		return nil, fmt.Errorf("traced assembly returned no ledger")
	}
	sessions := float64(tw.tally.completed)
	rcpts := float64(b.Rcpts - a.Rcpts)
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	out := make(map[string]metric)
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	delta := func(series string) float64 { return tw.mEnd[series] - tw.mStart[series] }
	hitRatio := func(hits, misses string) float64 {
		h, m := delta(hits), delta(misses)
		return per(h, h+m)
	}

	put("net.accepts_per_session", "count", per(float64(b.Accepts-a.Accepts), sessions))
	put("net.reads_per_session", "count", per(float64(b.Reads-a.Reads), sessions))
	put("net.writes_per_session", "count", per(float64(b.Writes-a.Writes), sessions))
	put("net.read_us_per_session", "us", per(float64(b.ReadNs-a.ReadNs)/1e3, sessions))
	put("net.write_us_per_session", "us", per(float64(b.WriteNs-a.WriteNs)/1e3, sessions))
	between := float64(b.BetweenNs - a.BetweenNs)
	hooks := float64(b.HookNs - a.HookNs)
	put("smtpserver.self_us_per_session", "us", per((between-hooks)/1e3, sessions))
	put("smtpserver.rcpt_batch_mean", "count", per(rcpts, float64(b.CheckCalls-a.CheckCalls)))

	var stageErrs float64
	for i, name := range b.StageNames {
		ns := float64(b.StageNs[i] - a.StageNs[i])
		stageErrs += float64(b.StageErrors[i] - a.StageErrors[i])
		put("bypass."+name+".eval_ns", "ns", per(ns, float64(b.StageEvals[i]-a.StageEvals[i])))
	}
	put("bypass.spf.cache_hit_ratio", "ratio", hitRatio("spf_cache_hits_total", "spf_cache_misses_total"))
	for _, st := range []string{"dnswl", "rdns"} {
		put("bypass."+st+".cache_hit_ratio", "ratio",
			hitRatio(`bypass_cache_hits_total{stage="`+st+`"}`, `bypass_cache_misses_total{stage="`+st+`"}`))
	}
	put("bypass.chain_p99_us", "us", float64(b.ChainP99Ns)/1e3)
	put("bypass.errors_per_rcpt", "count", per(stageErrs, rcpts))
	put("dns.queries_per_rcpt", "count", per(float64(b.DNSQueries-a.DNSQueries), rcpts))
	put("dns.rtt_us", "us", per(float64(b.DNSNs-a.DNSNs)/1e3, float64(b.DNSQueries-a.DNSQueries)))

	chainNs := float64(b.ChainNs - a.ChainNs)
	obsNs := float64(b.ObsNs - a.ObsNs)
	put("greylist.decide_ns_per_rcpt", "ns", per(float64(b.CheckNs-a.CheckNs)-chainNs-obsNs, rcpts))
	put("greylist.batch_p99_us", "us", float64(b.BatchP99Ns)/1e3)
	put("greylist.deferred_share", "ratio", per(float64(b.Deferred-a.Deferred), rcpts))
	put("greylist.heap_bytes_per_triplet", "B", b.HeapBytesPerTriplet)

	put("wal.records_per_rcpt", "count", per(float64(b.WALRecords-a.WALRecords), rcpts))
	put("wal.bytes_per_rcpt", "B", per(float64(b.WALBytes-a.WALBytes), rcpts))
	put("wal.fsyncs_per_s", "1/s", per(float64(b.WALFsyncs-a.WALFsyncs), tw.measSeconds))
	put("wal.backlog_max", "count", float64(b.BacklogMax))
	put("wal.sync_ms", "ms", per(float64(b.WALSyncNs-a.WALSyncNs)/1e6, float64(b.WALSyncs-a.WALSyncs)))

	put("obs.observe_ns_per_rcpt", "ns", per(obsNs, float64(b.ObsCalls-a.ObsCalls)))
	put("obs.snapshot_ms", "ms", median(tw.gets["/observatory"]))
	put("metrics.scrape_ms", "ms", median(tw.gets["/metrics"]))

	put("setup.recover_ms", "ms", float64(b.RecoverNs)/1e6)
	put("setup.replayed_records", "count", float64(b.Replayed))

	put("process.allocs_per_session", "count", per(float64(b.Allocs-a.Allocs), sessions))
	gcs, user := b.GCCPUSeconds-a.GCCPUSeconds, b.UserCPUSeconds-a.UserCPUSeconds
	put("process.gc_cpu_share", "ratio", per(gcs, gcs+user))

	put("loadgen.late_p99_ms", "ms", tw.lateP99)
	put("loadgen.cpu_share", "ratio", tw.nomDrvShare)

	shares, err := cpuShares(gd.profile)
	if err != nil {
		return nil, fmt.Errorf("greylistd cpu profile: %w", err)
	}
	for layer, v := range shares {
		put("cpu_share."+layer, "ratio", v)
	}

	// The ledger: server compute between conn I/O calls (session code,
	// hooks, chain, decide, observer) plus write syscalls, against the
	// assembly's whole CPU time per session. The remainder is read
	// syscalls, accepts, the scheduler, GC workers, the WAL consumer,
	// window rotation and the admin GETs.
	// Time a session goroutine spent parked on a DNS exchange is wall
	// time, not CPU, so it comes off the compute between I/O calls.
	server := per(tw.measCPUSeconds*1e6, sessions)
	dnsWait := float64(b.DNSNs - a.DNSNs)
	accounted := per((between-dnsWait+float64(b.WriteNs-a.WriteNs))/1e3, sessions)
	put("ledger.server_cpu_us_per_session", "us", server)
	put("ledger.accounted_us_per_session", "us", accounted)
	put("ledger.unaccounted_share", "ratio", 1-per(accounted, server))

	ge, te := endToEnd(gd), endToEnd(tw)
	for name, m := range ge {
		put("trace_overhead."+name, "ratio", per(te[name].Value, m.Value))
	}
	return out, nil
}
