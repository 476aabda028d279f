// Command perfbench benchmarks greylistd as shipped. It builds its
// inputs from a seed, starts the daemon as a subprocess with the WAL,
// the admin listener (observatory, /metrics, trace ring) and the
// SPF/DNSWL/rDNS bypass chain against a loopback DNS zone it serves
// itself, drives one workload over loopback TCP, checks every RCPT
// verdict against a reference model, and prints every metric by name
// and unit. The last line of standard output is one JSON object.
//
// Run it through run.sh from the repository root, which builds both
// binaries and pins this driver and greylistd to one CPU each:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 24 --trace 0
//
// With --trace 1 the run additionally profiles greylistd and then
// repeats the workload against "perfbench serve", an assembly of the
// same layers from their public constructors with timing wrappers at
// every seam, and prints the per-layer ledger instead.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/greylist"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // greylistd binary
	self     string // this binary, for the traced assembly
	work     string // scratch directory inside the checkout
	cpu      string // CPU to pin the server to ("" = unpinned)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var seed int64
	flag.StringVar(&cfg.workload, "workload", "", "workload: campaign, steady or probe")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per pass")
	traceFlag := flag.Int("trace", 0, "1: per-layer traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.bin, "bin", "", "greylistd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "scratch directory")
	flag.StringVar(&cfg.cpu, "daemon-cpu", "", "CPU to pin the server process to (empty: no pinning)")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.trace = *traceFlag == 1
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.self = self
	if cfg.bin == "" || cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -workload are required (use run.sh)")
		os.Exit(2)
	}
	// The driver's own GC pauses would land in greylistd's latencies
	// (its DNS answers and reply reads wait on them); its heap is small,
	// so trade memory for fewer collections.
	debug.SetGCPercent(400)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is one daemon's end-to-end figures for one workload.
type passResult struct {
	setups      []float64
	capacity    float64
	p50, p99    float64
	samples     int
	cpuPerSess  float64
	rssMiB      float64
	capSrvShare float64
	capDrvShare float64
	nomDrvShare float64
	lateP99     float64
	tally       *tally // capacity + nominal, between the two scrapes
	warm        *tally
	problems    []string             // oracle or /metrics disagreements
	invalid     []string             // validity-guard violations
	profile     []byte               // greylistd CPU profile over the nominal phase
	gets        map[string][]float64 // admin GET durations under load, ms
	mStart      map[string]float64
	mEnd        map[string]float64
	serverPID   int
	// traced assembly only: seam totals at the two scrapes, and the
	// assembly's CPU time over the same interval
	ledger0, ledger1 *ledgerSnapshot
	measSeconds      float64
	measCPUSeconds   float64
	cycles           int
	cleanCycles      int
	caps             []float64 // per-cycle capacities of the cycles used
}

func (p *passResult) setupMedian() float64 { return median(p.setups) }

func run(cfg config) (*result, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	w, err := buildWorkload(cfg.workload, cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	dns, dnsAddr, zoneHash, err := startDNS(w.chain)
	if err != nil {
		return nil, err
	}
	defer dns.Close()
	if w.fixture != nil {
		dir := filepath.Join(cfg.work, "fixture")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := w.fixture.build(dir, daemonPolicy()); err != nil {
			return nil, err
		}
	}
	meta := runMeta(cfg, w, zoneHash)
	steal0 := stealTicks()
	daemonArgs := func(bin string, pre ...string) func(smtp, admin, state string) []string {
		return func(smtp, admin, state string) []string {
			return append(append([]string{bin}, pre...),
				"-listen", smtp, "-admin-addr", admin,
				"-state", filepath.Join(state, "greylist.db"), "-wal", filepath.Join(state, "greylist.wal"),
				"-threshold", threshold.String(), "-wal-compact-every", "-1",
				"-spf", "-dnswl", dnswlOrigin, "-rdns", "-dns", dnsAddr)
		}
	}
	setups := 15
	if cfg.workload == "steady" {
		setups = 5
	}
	gd, err := runPass(cfg, w, daemonArgs(cfg.bin), setups, cfg.trace, false)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	res.Attempted = gd.tally.attempted + gd.warm.attempted
	res.Failed = gd.tally.failed + gd.tally.mismatches + gd.warm.failed + gd.warm.mismatches
	res.Correct = res.Failed == 0 && len(gd.problems) == 0
	errRate := float64(res.Failed) / math.Max(1, float64(res.Attempted))
	printPass("greylistd", gd, errRate)
	meta["cycles"], meta["clean_cycles"] = gd.cycles, gd.cleanCycles
	meta["valid"] = len(gd.invalid) == 0
	meta["invalid_reasons"] = gd.invalid
	if !cfg.trace {
		res.Metrics = endToEnd(gd)
	} else {
		// The traced assembly consumes a fresh copy of the same inputs.
		w2, err := buildWorkload(cfg.workload, cfg.seed, 1)
		if err != nil {
			return nil, err
		}
		if w.fixture != nil {
			w2.fixture.dir, w2.fixture.wantPending, w2.fixture.wantPassed, w2.fixture.replayed =
				w.fixture.dir, w.fixture.wantPending, w.fixture.wantPassed, w.fixture.replayed
		}
		tw, err := runPass(cfg, w2, daemonArgs(cfg.self, "serve"), 1, false, true)
		if err != nil {
			return nil, err
		}
		printPass("traced assembly", tw, 0)
		res.Attempted += tw.tally.attempted + tw.warm.attempted
		twFailed := tw.tally.failed + tw.tally.mismatches + tw.warm.failed + tw.warm.mismatches
		res.Failed += twFailed
		res.Correct = res.Correct && twFailed == 0 && len(tw.problems) == 0
		lm, err := perLayer(gd, tw)
		if err != nil {
			return nil, err
		}
		res.Metrics = lm
	}
	for k, v := range res.Metrics {
		meta["metric."+k] = v.Value
	}
	// Time the hypervisor gave the host's CPUs to other guests during the
	// run: a high share means a noisy neighbour, not a slow build.
	steal1 := stealTicks()
	for i := range steal1 {
		if i < len(steal0) {
			meta[fmt.Sprintf("steal_s_cpu%d", i)] = float64(steal1[i]-steal0[i]) / clkTck
		}
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", mb)
	if err := os.WriteFile(filepath.Join(cfg.work, "meta.json"), mb, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// daemonPolicy is the greylist policy greylistd runs with under the
// benchmark's flags (its defaults plus the short threshold).
func daemonPolicy() greylist.Policy {
	p := greylist.DefaultPolicy()
	p.Threshold = threshold
	return p
}

// endToEnd is the --trace 0 result. The p99 is printed on the summary
// line but is not one of them: on a shared host its run-to-run spread
// across seeds is wider than any bound a regression check could use.
func endToEnd(p *passResult) map[string]metric {
	return map[string]metric{
		"setup_s":                   {p.setupMedian(), "s"},
		"capacity_sessions_per_s":   {p.capacity, "1/s"},
		"session_p50_ms":            {p.p50, "ms"},
		"server_cpu_us_per_session": {p.cpuPerSess, "us"},
		"server_rss_peak_mib":       {p.rssMiB, "MiB"},
	}
}

func printPass(who string, p *passResult, errRate float64) {
	fmt.Printf("# %s: setup %.3fs (of %d: %v)\n", who, p.setupMedian(), len(p.setups), roundAll(p.setups))
	fmt.Printf("# %s: capacity %.0f sessions/s (server core %.0f%%, driver core %.0f%%; cycles %v)\n",
		who, p.capacity, 100*p.capSrvShare, 100*p.capDrvShare, roundAll(p.caps))
	fmt.Printf("# %s: nominal p50 %.3f ms p99 %.3f ms over %d sessions, %.1f us server CPU/session, late p99 %.3f ms, driver core %.0f%%\n",
		who, p.p50, p.p99, p.samples, p.cpuPerSess, p.lateP99, 100*p.nomDrvShare)
	fmt.Printf("# %s: rss peak %.1f MiB; %d of %d cycles clean of CPU steal; %s; error_rate %.6f\n",
		who, p.rssMiB, p.cleanCycles, p.cycles, p.tally, errRate)
	for _, s := range p.problems {
		fmt.Printf("# %s: MISMATCH %s\n", who, s)
	}
	for _, s := range p.invalid {
		fmt.Printf("# %s: INVALID %s\n", who, s)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

// runPass starts the daemon (setups times, keeping the last), then runs
// warm-up, the closed-loop capacity phase and the open-loop nominal
// phase, and cross-checks the oracle against the daemon's /metrics.
func runPass(cfg config, w *workload, args func(smtp, admin, state string) []string, setups int, profile, traced bool) (*passResult, error) {
	p := &passResult{warm: newTally(), gets: make(map[string][]float64)}
	state := filepath.Join(cfg.work, "state")
	logPath := filepath.Join(cfg.work, "daemon.log")
	var d *daemon
	defer func() { d.stop() }()
	for i := 0; i < setups; i++ {
		if err := os.RemoveAll(state); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(state, 0o755); err != nil {
			return nil, err
		}
		if w.fixture != nil {
			if err := w.fixture.install(state); err != nil {
				return nil, err
			}
		}
		smtp, err := freePort()
		if err != nil {
			return nil, err
		}
		admin, err := freePort()
		if err != nil {
			return nil, err
		}
		nd, secs, err := startDaemon(args(smtp, admin, state), cfg.cpu, smtp, admin, logPath)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secs)
		if i < setups-1 {
			nd.stop()
		} else {
			d = nd
		}
	}
	p.serverPID = d.pid()
	m, err := scrape(d.adminAddr)
	if err != nil {
		return nil, err
	}
	if f := w.fixture; f != nil {
		got := [3]float64{m["greylist_pending_triplets"], m["greylist_passed_triplets"], m["wal_replayed_records_total"]}
		want := [3]float64{float64(f.wantPending), float64(f.wantPassed), float64(f.replayed)}
		if got != want {
			p.problems = append(p.problems, fmt.Sprintf("recovered pending/passed/replayed %v, fixture has %v", got, want))
		}
	}
	// The measured time alternates cycles of an open-loop nominal phase
	// and a closed-loop capacity phase, so a burst of interference on a
	// shared host (another guest's CPU steal, a noisy neighbour) costs
	// the cycles it lands in rather than a whole phase. Capacity and CPU
	// per session come from all cycles' summed sessions and server CPU
	// time, latency from the pooled samples of the cycles the hypervisor
	// left alone. Each capacity phase runs a fixed number of sessions,
	// sized to take capDur at the workload's reference capacity, so every
	// run of a seed does the same work and campaign's table grows to the
	// same size however fast the host happens to be.
	total := time.Duration(cfg.seconds) * time.Second
	nomDur := total / 2 / cycles
	capDur := total / 2 / cycles
	capSessions := int64(w.capRate * capDur.Seconds())
	lanes := [2]*lane{newLane(0, d.smtpAddr, w), newLane(1, d.smtpAddr, w)}
	// nominal runs the open-loop phase from now; capacity runs the
	// closed-loop phase until the lanes together have completed
	// capSessions (or, on a host far slower than the reference, for at
	// most maxStretch times the planned time).
	nominal := func(into *tally) {
		start := time.Now()
		runLanes(lanes, into, func(l *lane, t *tally) { l.runPhase(start.Add(nomDur), true, w.nominal, nil, t) })
	}
	capacity := func(into *tally) {
		var budget atomic.Int64
		budget.Store(capSessions)
		until := time.Now().Add(maxStretch * capDur)
		runLanes(lanes, into, func(l *lane, t *tally) { l.runPhase(until, false, 0, &budget, t) })
	}
	if len(w.warm[0])+len(w.warm[1]) > 0 {
		runLanes(lanes, p.warm, func(l *lane, t *tally) { l.runWarm(w.warm[l.id], t) })
	}
	// One unmeasured cycle brings the caches, the heap and campaign's
	// relay retries to their running state before timing starts.
	nominal(p.warm)
	capacity(p.warm)
	time.Sleep(settle)
	if p.mStart, err = scrape(d.adminAddr); err != nil {
		return nil, err
	}
	if traced {
		if p.ledger0, err = fetchLedger(d.adminAddr, false); err != nil {
			return nil, err
		}
	}

	var side sync.WaitGroup
	stopSide := make(chan struct{})
	if profile {
		side.Add(1)
		go func() {
			defer side.Done()
			p.profile, _ = fetch(d.adminAddr, fmt.Sprintf("/debug/pprof/profile?seconds=%d", cfg.seconds))
		}()
	}
	if traced {
		side.Add(1)
		go func() {
			defer side.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stopSide:
					return
				case <-tick.C:
				}
				path := []string{"/observatory", "/metrics"}[i%2]
				if dur, err := timedGet(d.adminAddr, path); err == nil {
					p.gets[path] = append(p.gets[path], ms(dur))
				}
			}
		}()
	}
	nomT, capT := newTally(), newTally()
	var all, clean []cycleStats
	c0, _ := cpuTicks(p.serverPID)
	t0 := time.Now()
	time.Sleep(settle)
	for c := 0; c < cycles; c++ {
		// Nominal: open loop at the workload's fixed rate.
		var cs cycleStats
		steal0 := stealTicks()
		cyc := newTally()
		ca, _ := cpuTicks(p.serverPID)
		sa, ta := selfCPU(), time.Now()
		nominal(cyc)
		cb, _ := cpuTicks(p.serverPID)
		sb, tb := selfCPU(), time.Now()
		cs.nomTicks, cs.nomSecs, cs.nomDrv = cb-ca, tb.Sub(ta).Seconds(), (sb - sa).Seconds()
		cs.sessions = cyc.completed
		cs.lat = cyc.lat
		nomT.merge(cyc)

		// Capacity: closed loop.
		cyc = newTally()
		capacity(cyc)
		cc, _ := cpuTicks(p.serverPID)
		sc, tc := selfCPU(), time.Now()
		cs.capTicks, cs.capSecs, cs.capDrv = cc-cb, tc.Sub(tb).Seconds(), (sc - sb).Seconds()
		cs.capSessions = cyc.completed
		capT.merge(cyc)
		// A pause that lets the capacity phase's GC and WAL work drain
		// before the next nominal phase. That work belongs to the
		// capacity phase: a collection it triggered may finish here, in
		// idle time, or inside the phase, and counting either way keeps
		// where it lands from moving the figure.
		time.Sleep(settle)
		cd, _ := cpuTicks(p.serverPID)
		cs.capWork = cd - cb
		cs.capacity = float64(cyc.completed) / math.Max(1, float64(cs.capWork)) * clkTck

		// A cycle during which the hypervisor took more than a sliver of
		// either CPU measured the neighbours, not greylistd.
		steal1 := stealTicks()
		for i := range steal1 {
			if i < len(steal0) {
				cs.steal = max(cs.steal, float64(steal1[i]-steal0[i])/clkTck/tc.Sub(ta).Seconds())
			}
		}
		all = append(all, cs)
		if cs.steal <= maxSteal {
			clean = append(clean, cs)
		}
	}
	c2, _ := cpuTicks(p.serverPID)
	t2 := time.Now()
	close(stopSide)
	side.Wait()
	p.cycles, p.cleanCycles = len(all), len(clean)
	var caps, lat []float64
	var nomTicks, capTicks, capWork int64
	var nomSecs, capSecs, nomDrv, capDrv float64
	var nomSessions, capDone int
	for _, cs := range all {
		caps = append(caps, cs.capacity)
		nomTicks, capTicks, capWork = nomTicks+cs.nomTicks, capTicks+cs.capTicks, capWork+cs.capWork
		nomSecs, capSecs, nomDrv, capDrv = nomSecs+cs.nomSecs, capSecs+cs.capSecs, nomDrv+cs.nomDrv, capDrv+cs.capDrv
		nomSessions, capDone = nomSessions+cs.sessions, capDone+cs.capSessions
	}
	// Too few clean cycles: take latency from the least stolen ones.
	use := clean
	if len(use) < minClean {
		sort.Slice(all, func(i, j int) bool { return all[i].steal < all[j].steal })
		use = all[:minClean]
	}
	for _, cs := range use {
		lat = append(lat, cs.lat...)
	}
	p.nomDrvShare = nomDrv / nomSecs
	p.cpuPerSess = float64(nomTicks) / clkTck * 1e6 / math.Max(1, float64(nomSessions))
	p.samples = len(lat)
	// Latency pools the chosen cycles' samples: stalls (GC cycles,
	// fsyncs) are rare enough that a per-cycle p99 flips between
	// "had one" and "had none", while the pooled tail counts them all.
	p.p50, p.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	// Capacity counts only greylistd's own CPU time in the closed-loop
	// phases and the pauses after them: sessions per second of its
	// saturated core. Wall-clock time would also count what the host's
	// other guests took from that core, which is most of the run-to-run
	// spread on a shared machine, and pooling the cycles (rather than a
	// per-cycle median) averages out the session mix and the collections,
	// which swing from cycle to cycle.
	p.capacity = float64(capDone) / math.Max(1, float64(capWork)) * clkTck
	p.caps = caps
	p.capSrvShare = float64(capTicks) / clkTck / capSecs
	p.capDrvShare = capDrv / capSecs
	p.lateP99 = quantile(nomT.late, 0.99)

	p.tally = newTally()
	p.tally.merge(capT)
	p.tally.merge(nomT)
	// Let the WAL consumer frame the last records, then cross-check.
	for try := 0; try < 5; try++ {
		time.Sleep(100 * time.Millisecond)
		if p.mEnd, err = scrape(d.adminAddr); err != nil {
			return nil, err
		}
		if crossCheck(p.tally, p.mStart, p.mEnd) == nil {
			break
		}
	}
	p.problems = append(p.problems, crossCheck(p.tally, p.mStart, p.mEnd)...)
	p.measSeconds = t2.Sub(t0).Seconds()
	p.measCPUSeconds = float64(c2-c0) / clkTck
	if traced {
		if p.ledger1, err = fetchLedger(d.adminAddr, true); err != nil {
			return nil, err
		}
	}
	if p.tally.deferred != p.tally.expDefer || p.tally.messages != p.tally.expMsgs {
		p.problems = append(p.problems, fmt.Sprintf("client saw %d deferrals and %d messages, oracle expected %d and %d",
			p.tally.deferred, p.tally.messages, p.tally.expDefer, p.tally.expMsgs))
	}
	hwm, err := statusKiB(p.serverPID, "VmHWM")
	if err != nil {
		return nil, err
	}
	p.rssMiB = hwm / 1024

	// Validity guards.
	if p.lateP99 > lateBound {
		p.invalid = append(p.invalid, fmt.Sprintf("generator late p99 %.2f ms > %.0f ms", p.lateP99, lateBound))
	}
	if p.capDrvShare > 0.95 || p.nomDrvShare > 0.95 {
		p.invalid = append(p.invalid, fmt.Sprintf("driver core saturated (%.0f%%, %.0f%%)", 100*p.capDrvShare, 100*p.nomDrvShare))
	}
	if p.capSrvShare < 0.7 || p.capSrvShare < p.capDrvShare {
		p.invalid = append(p.invalid, fmt.Sprintf("server core not the bottleneck in the capacity phase (server %.0f%%, driver %.0f%%)",
			100*p.capSrvShare, 100*p.capDrvShare))
	}
	return p, nil
}

// cycles is how many nominal/capacity phase pairs a run alternates;
// settle is the idle pause before each nominal phase. A cycle is clean
// when the hypervisor stole at most maxSteal of either CPU during it;
// latency comes from the clean cycles when there are minClean of them.
// maxStretch bounds a capacity phase at that many times its planned
// length.
const (
	cycles     = 8
	settle     = 250 * time.Millisecond
	maxSteal   = 0.02
	minClean   = 4
	maxStretch = 4
)

// cycleStats is one nominal/capacity cycle's raw figures.
type cycleStats struct {
	lat                []float64 // latency samples of the nominal phase, ms
	capacity           float64   // sessions per second of server CPU
	sessions           int       // nominal phase
	capSessions        int
	nomTicks, capTicks int64
	capWork            int64 // capacity phase plus the pause after it
	nomSecs, capSecs   float64
	nomDrv, capDrv     float64
	steal              float64 // largest share of the cycle stolen from a CPU
}

// lateBound is how late the open-loop generator may send its sessions
// (p99) before a latency phase counts as invalid.
const lateBound = 50.0

func runLanes(lanes [2]*lane, into *tally, f func(*lane, *tally)) {
	var wg sync.WaitGroup
	ts := [2]*tally{newTally(), newTally()}
	for i, l := range lanes {
		wg.Add(1)
		go func(l *lane, t *tally) {
			defer wg.Done()
			f(l, t)
		}(l, ts[i])
	}
	wg.Wait()
	into.merge(ts[0])
	into.merge(ts[1])
}

// crossCheck compares the oracle's counts with the daemon's /metrics
// deltas over the same interval.
func crossCheck(t *tally, m0, m1 map[string]float64) []string {
	var bad []string
	delta := func(series string) int { return int(math.Round(m1[series] - m0[series])) }
	for _, reason := range []string{"first-seen", "too-soon", "window-expired", "retry-accepted", "known-triplet",
		"whitelisted", "auto-whitelisted", "dnswl-listed", "rdns-mailserver", "earned-whitelist", "bypass-other"} {
		series := `greylist_verdicts_total{reason="` + reason + `"}`
		if got, want := delta(series), t.reasons[reason]; got != want {
			bad = append(bad, fmt.Sprintf("%s: daemon %d, oracle %d", series, got, want))
		}
	}
	for _, c := range []struct {
		series string
		want   int
	}{
		{"smtp_recipients_deferred_total", t.expDefer},
		{"smtp_messages_accepted_total", t.expMsgs},
		{"wal_records_total", t.walRecs},
		{"greylist_checks_total", t.rcpts},
		{`greylist_bypass_stage_total{stage="spf",action="rekey"}`, t.stages["spf"]},
		{`greylist_bypass_stage_total{stage="dnswl",action="bypass"}`, t.stages["dnswl"]},
		{`greylist_bypass_stage_total{stage="rdns",action="bypass"}`, t.stages["rdns"]},
	} {
		if got := delta(c.series); got != c.want {
			bad = append(bad, fmt.Sprintf("%s: daemon %d, oracle %d", c.series, got, c.want))
		}
	}
	return bad
}

func fetch(addr, path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// runMeta records the host, the processes' settings and the inputs.
func runMeta(cfg config, w *workload, zoneHash string) map[string]any {
	m := map[string]any{
		"workload":               cfg.workload,
		"seed":                   cfg.seed,
		"seconds":                cfg.seconds,
		"trace":                  cfg.trace,
		"go":                     runtime.Version(),
		"nproc":                  nproc(),
		"cpu_model":              cpuModel(),
		"driver_gomaxprocs":      runtime.GOMAXPROCS(0),
		"driver_cpus":            cpusAllowed(),
		"daemon_gomaxprocs":      1,
		"daemon_cpus":            cfg.cpu,
		"nominal_sessions_per_s": w.nominal,
		"zone_hash":              zoneHash,
		"commit":                 commit(),
		"greylistd_sha256":       fileHash(cfg.bin),
	}
	if w.fixture != nil {
		m["fixture_hash"] = w.fixture.hash
		m["fixture_build_s"] = w.fixture.buildSeconds
		m["fixture_pending"] = w.fixture.wantPending
		m["fixture_passed"] = w.fixture.wantPassed
	}
	return m
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// stealTicks reads each CPU's steal time from /proc/stat.
func stealTicks() []int64 {
	b, _ := os.ReadFile("/proc/stat")
	var out []int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && strings.HasPrefix(f[0], "cpu") && f[0] != "cpu" {
			v, _ := strconv.ParseInt(f[8], 10, 64)
			out = append(out, v)
		}
	}
	return out
}

// nproc counts the host's processors (runtime.NumCPU reports only the
// driver's pinned set).
func nproc() int {
	b, _ := os.ReadFile("/proc/cpuinfo")
	return strings.Count(string(b), "\nprocessor") + strings.Count(string(b[:min(len(b), 9)]), "processor")
}

func cpusAllowed() string {
	b, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "Cpus_allowed_list:") {
			return strings.TrimSpace(line[len("Cpus_allowed_list:"):])
		}
	}
	return "unknown"
}

// commit names the source revision when the checkout is a git work
// tree; benchmark checkouts usually are not, and the greylistd binary
// hash identifies the build instead.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	io.Copy(h, f)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
