// Command mailflow runs the benign-mail experiments of Section V: the
// webmail retry study (Table III), the MTA schedule survey (Table IV) and
// the deployment delay CDF (Figure 5). It can also sweep the greylisting
// threshold to expose the spam-blocked vs. benign-delay trade-off behind
// the paper's "use a very short threshold" recommendation, or — with
// -exp queue — run a live MTA retry queue against a greylisted victim
// domain in virtual time instead of evaluating the schedule analytically.
//
// -exp soak is the wire-level load harness: an open-loop TCP generator
// (internal/loadgen) drives a real greylisting SMTP server — an external
// greylistd via -addr, or greylistd itself started in this process
// (internal/daemon, with greylistd's command line "-listen 127.0.0.1:0
// -threshold T") on a real loopback socket — with mixed ham/spam
// traffic, and reports sustained sessions/sec plus per-verb and
// per-verdict latency percentiles. -smoke selects a short CI profile;
// -heap-check fails the run if any phase's heap watermark exceeds the
// given byte ceiling; -bench-out writes the machine-readable report.
//
// Usage:
//
//	mailflow -exp table3|table4|fig5|sweep|queue|soak [-threshold 6h] [-seed 1]
//	         [-days 120] [-rate 200] [-log out.log]
//	         [-mta sendmail] [-messages 5] [-trace out.jsonl]
//	         [-admin-addr 127.0.0.1:9926]
//	         [-addr host:25] [-soak-rate 20000] [-conns 32] [-ham 0.25]
//	         [-rcpt-batch 16] [-warmup 2s] [-measure 10s] [-soak 30s]
//	         [-slo 50ms] [-smoke] [-heap-check 268435456] [-bench-out BENCH_soak.json]
//
// With -admin-addr, an HTTP listener exposes process metrics on /metrics
// and live profiling on /debug/pprof/ for the duration of the run —
// useful for profiling long fig5 generations and threshold sweeps. For
// -exp queue it also serves the finished message traces on
// /debug/traces. The in-process soak passes -admin-addr, -obs-window
// and -obs-windows on to greylistd instead, so the daemon's own admin
// listener serves the run: its metrics, sampled session traces and
// observatory, with the load generator's series and sketches added.
//
// -trace (queue experiment only) records every queued message as an
// end-to-end trace — enqueue, MX walk, dials, server verbs, greylist
// verdict, retry scheduling, final outcome — and writes the finished
// traces as JSONL to the given file, or stdout for "-" behind a
// "# == trace snapshot (jsonl) ==" marker line after the report text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/lab"
	"repro/internal/loadgen"
	"repro/internal/maillog"
	"repro/internal/metrics"
	"repro/internal/mta"
	"repro/internal/mtaqueue"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/smtpclient"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/webmail"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mailflow:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "table3", "experiment: table3, table4, fig5, sweep, queue, soak")
		threshold = flag.Duration("threshold", 6*time.Hour, "greylisting threshold for table3 and queue")
		seed      = flag.Int64("seed", 1, "random seed")
		days      = flag.Int("days", 120, "fig5 deployment length")
		rate      = flag.Int("rate", 200, "fig5 messages per day")
		logOut    = flag.String("log", "", "fig5: also write the raw synthetic log here")
		mtaName   = flag.String("mta", "sendmail", "queue: MTA retry schedule to run (sendmail, exim, postfix, qmail, courier, exchange)")
		messages  = flag.Int("messages", 5, "queue: benign messages to submit")
		traceOut  = flag.String("trace", "", "queue: write every message's end-to-end trace as JSONL to this file ('-' = stdout)")
		adminAddr = flag.String("admin-addr", "", "serve /metrics and /debug/pprof on this address for the duration of the run")

		soakAddr  = flag.String("addr", "", "soak: target server host:port (empty = in-process greylisting server on a loopback socket)")
		soakRate  = flag.Float64("soak-rate", 20000, "soak: offered sessions per second (open-loop)")
		conns     = flag.Int("conns", 32, "soak: connection pool size (one pipelined worker per connection)")
		hamFrac   = flag.Float64("ham", 0.25, "soak: ham fraction of offered sessions; the rest are spam campaign bursts")
		rcptBatch = flag.Int("rcpt-batch", 16, "soak: max pipelined RCPTs per volley (keep <= the server's -rcpt-batch)")
		warmup    = flag.Duration("warmup", 2*time.Second, "soak: warmup phase (discarded from the report)")
		measure   = flag.Duration("measure", 10*time.Second, "soak: measurement phase")
		soakLen   = flag.Duration("soak", 30*time.Second, "soak: extended phase watching for memory growth")
		slo       = flag.Duration("slo", 50*time.Millisecond, "soak: intended-to-complete session latency objective")
		smoke     = flag.Bool("smoke", false, "soak: short single-core CI profile (overrides rate, conns and phase lengths)")
		probe     = flag.Bool("probe", false, "soak: engine-stress profile — pure pipelined RCPT probe volleys over kept connections (no DATA/QUIT churn)")
		heapCheck = flag.Int64("heap-check", 0, "soak: fail if any phase's heap watermark exceeds this many bytes (0 = off)")
		benchOut  = flag.String("bench-out", "", "soak: write the machine-readable report JSON to this file")

		obsWindow  = flag.Duration("obs-window", time.Second, "observatory rollup window duration; needs -admin-addr")
		obsWindows = flag.Int("obs-windows", 60, "observatory ring length (closed windows kept for /observatory)")
	)
	flag.Parse()

	// The queue experiment is the one live (traced) path; the ring
	// holds one trace per submitted message.
	var tracer *trace.Tracer
	if *exp == "queue" && (*traceOut != "" || *adminAddr != "") {
		n := *messages
		if n < 16 {
			n = 16
		}
		tracer = trace.New(n)
	}

	// The in-process soak serves -admin-addr from greylistd's own admin
	// listener (see runSoak).
	inProcessSoak := *exp == "soak" && *soakAddr == ""
	var adminReg *metrics.Registry
	var obsv *obs.Observatory
	if *adminAddr != "" && !inProcessSoak {
		reg := metrics.NewRegistry()
		adminReg = reg
		metrics.RegisterProcess(reg)
		var extra []metrics.Endpoint
		if tracer != nil {
			extra = append(extra, metrics.Endpoint{Path: "/debug/traces", Handler: tracer.Handler()})
		}
		// The live observatory rides the admin listener: the soak's
		// load generator (or the queue experiment's retry scheduler)
		// feeds it, /observatory serves the rollups greyctl renders.
		// One-second windows by default — soak runs are short and
		// greyctl watch wants fine grain.
		obsv = obs.New(obs.Config{Window: *obsWindow, Windows: *obsWindows})
		obsv.Register(reg)
		extra = append(extra, obsv.Endpoint())
		health := metrics.NewHealth()
		health.Add("observatory", obsv.Healthy)
		extra = append(extra, health.Endpoint())
		obsv.Start()
		defer obsv.Stop()
		admin, err := metrics.ServeAdmin(*adminAddr, reg, extra...)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		defer func() {
			if err := admin.Shutdown(context.Background()); err != nil {
				fmt.Fprintln(os.Stderr, "admin shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s/metrics (pprof at /debug/pprof/, observatory at /observatory)\n",
			admin.Addr())
	}

	switch *exp {
	case "table3":
		results := webmail.SimulateAll(*threshold)
		providers := webmail.Top10()
		tbl := stats.NewTable("PROVIDER", "SAME IP", "ATTEMPTS", "DELIVER", "DELAY/GIVE-UP")
		for i, r := range results {
			same := "yes"
			if !r.SameIP {
				same = fmt.Sprintf("no (%d)", providers[i].PoolSize)
			}
			deliver, detail := "no", stats.FormatDuration(providers[i].GiveUpAfter())+" (gave up)"
			if r.Delivered {
				deliver, detail = "yes", stats.FormatDuration(r.DeliveredAt)
			}
			tbl.AddRow(r.Provider, same, fmt.Sprintf("%d", r.AttemptsMade), deliver, detail)
		}
		fmt.Printf("Webmail delivery attempts with a %v greylisting threshold\n\n", *threshold)
		fmt.Print(tbl.String())

	case "table4":
		fmt.Print(report.Table4())

	case "fig5":
		cfg := maillog.DefaultGeneratorConfig(*seed)
		cfg.Days = *days
		cfg.MessagesPerDay = *rate
		entries, summary, err := maillog.Generate(cfg)
		if err != nil {
			return err
		}
		if *logOut != "" {
			f, err := os.Create(*logOut)
			if err != nil {
				return err
			}
			if err := maillog.WriteLog(f, entries); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d log entries to %s\n", len(entries), *logOut)
		}
		cdf := maillog.Fig5CDF(entries)
		fmt.Printf("Deployment: %d days, %d messages (%d lost), %d greylisted+delivered\n",
			cfg.Days, summary.Messages, summary.Lost, cdf.N())
		fmt.Printf("P(delay<=10min)=%.2f  P(delay>50min)=%.2f  median=%.0fs  max=%.0fs\n\n",
			cdf.P(600), 1-cdf.P(3000), cdf.Median(), cdf.Max())
		fmt.Print(stats.RenderCDF(cdf, 60, 12, "s"))

	case "sweep":
		// Threshold sweep: what each threshold costs benign senders.
		fmt.Println("Greylisting threshold sweep: benign delivery delay per MTA")
		fmt.Println()
		thresholds := []time.Duration{
			5 * time.Second, 300 * time.Second, 30 * time.Minute,
			2 * time.Hour, 6 * time.Hour, 24 * time.Hour, 3 * 24 * time.Hour,
		}
		header := []string{"MTA"}
		for _, th := range thresholds {
			header = append(header, th.String())
		}
		tbl := stats.NewTable(header...)
		for _, s := range mta.All() {
			row := []string{s.Name}
			for _, th := range thresholds {
				if delay, ok := s.DeliveryDelay(th); ok {
					row = append(row, stats.FormatDuration(delay))
				} else {
					row = append(row, "BOUNCED")
				}
			}
			tbl.AddRow(row...)
		}
		fmt.Print(tbl.String())

	case "queue":
		// A live run of Table IV's subject matter: a real retry queue
		// delivering benign mail through a greylisted victim domain,
		// with every message traced from enqueue to verdict.
		sched, err := mta.ByName(*mtaName)
		if err != nil {
			return err
		}
		l, err := lab.New(lab.Config{Defense: core.DefenseGreylisting, Threshold: *threshold})
		if err != nil {
			return err
		}
		defer l.Close()
		qcfg := mtaqueue.Config{
			Schedule:  sched,
			HeloName:  "mta.benign.example",
			Resolver:  l.Resolver,
			Dialer:    &smtpclient.SimDialer{Net: l.Net, LocalIP: "203.0.113.50"},
			Sched:     l.Sched,
			Tracer:    tracer,
			TraceTags: trace.Tags{Defense: "greylisting", Threshold: *threshold},
		}
		if obsv != nil {
			qcfg.RetryObserver = obsv.RetrySink()
		}
		q, err := mtaqueue.New(qcfg)
		if err != nil {
			return err
		}
		for i := 0; i < *messages; i++ {
			q.Submit(lab.TargetDomain, smtpclient.Message{
				From: fmt.Sprintf("sender%d@benign.example", i),
				To:   []string{fmt.Sprintf("user%d@%s", i, lab.TargetDomain)},
				Data: []byte("Subject: hello\r\n\r\nbenign message\r\n"),
			})
		}
		l.Sched.Run()
		queued, delivered, bounced := q.Summary()
		fmt.Printf("%s retry queue vs a %v greylisting threshold: %d delivered, %d bounced, %d still queued\n\n",
			sched.Name, *threshold, delivered, bounced, queued)
		tbl := stats.NewTable("MSG", "STATUS", "ATTEMPTS", "DELAY")
		for _, m := range q.Messages() {
			status := m.Status.String()
			if m.Bounce == mtaqueue.BounceExpired {
				status += " (queue lifetime expired)"
			}
			delay := "-"
			if m.Status == mtaqueue.StatusDelivered {
				delay = stats.FormatDuration(m.Delay)
			}
			tbl.AddRow(fmt.Sprintf("%d", m.ID), status, fmt.Sprintf("%d", m.Attempts), delay)
		}
		fmt.Print(tbl.String())

	case "soak":
		// -threshold's 6h default suits the analytic experiments; a live
		// soak wants the paper's "very short threshold" so retried
		// triplets actually pass and the DATA path sees traffic. Keep an
		// explicit -threshold if the user set one.
		thr := time.Second
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "threshold" {
				thr = *threshold
			}
		})
		_, err := runSoak(soakOptions{
			addr:       *soakAddr,
			threshold:  thr,
			rate:       *soakRate,
			ham:        *hamFrac,
			conns:      *conns,
			rcptBatch:  *rcptBatch,
			warmup:     *warmup,
			measure:    *measure,
			soak:       *soakLen,
			slo:        *slo,
			seed:       *seed,
			smoke:      *smoke,
			probe:      *probe,
			heapCheck:  *heapCheck,
			benchOut:   *benchOut,
			adminAddr:  *adminAddr,
			obsWindow:  *obsWindow,
			obsWindows: *obsWindows,
		}, adminReg, obsv)
		return err

	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	if tracer != nil && *traceOut != "" {
		if *traceOut == "-" {
			fmt.Println("# == trace snapshot (jsonl) ==")
			return tracer.WriteJSONL(os.Stdout)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace snapshot to %s\n", *traceOut)
	}
	return nil
}

type soakOptions struct {
	addr      string
	threshold time.Duration
	rate      float64
	ham       float64
	conns     int
	rcptBatch int
	warmup    time.Duration
	measure   time.Duration
	soak      time.Duration
	slo       time.Duration
	seed      int64
	smoke     bool
	probe     bool
	heapCheck int64
	benchOut  string
	// adminAddr, obsWindow and obsWindows are passed on to the
	// in-process greylistd.
	adminAddr  string
	obsWindow  time.Duration
	obsWindows int
}

// runSoak drives internal/loadgen against a real SMTP server over real
// TCP and returns the load generator's report. With no -addr it starts
// greylistd itself inside this process (internal/daemon, on a loopback
// socket, so the measured path still crosses the kernel TCP stack); the
// load generator then registers in the daemon's registry and feeds its
// observatory, and reg and obsv are ignored. Otherwise reg and obsv,
// when non-nil, are mailflow's own.
func runSoak(opt soakOptions, reg *metrics.Registry, obsv *obs.Observatory) (_ *loadgen.Report, err error) {
	if opt.smoke {
		// CI profile: small enough for a shared single-core runner,
		// long enough that a leaky session path shows in the soak
		// phase's heap watermark.
		opt.rate, opt.conns = 2000, 4
		opt.warmup, opt.measure, opt.soak = time.Second, 2*time.Second, 3*time.Second
	}

	addr := opt.addr
	if addr == "" {
		// greylistd's own command line; its per-message "accepted:"
		// lines are not the soak's output.
		argv := []string{"greylistd", "-listen", "127.0.0.1:0", "-threshold", opt.threshold.String()}
		if opt.adminAddr != "" {
			argv = append(argv, "-admin-addr", opt.adminAddr,
				"-obs-window", opt.obsWindow.String(), "-obs-windows", strconv.Itoa(opt.obsWindows))
		}
		d, serr := daemon.Start(argv, io.Discard)
		if serr != nil {
			return nil, serr
		}
		defer func() {
			if cerr := d.Close(); err == nil {
				err = cerr
			}
		}()
		addr = d.SMTPAddr().String()
		reg, obsv = d.Registry(), d.Observatory()
		fmt.Fprintf(os.Stderr, "in-process greylistd on %s (threshold %v)\n", addr, opt.threshold)
		if a := d.AdminAddr(); a != nil {
			fmt.Fprintf(os.Stderr, "admin endpoint on http://%s/metrics (pprof at /debug/pprof/, sampled session traces at /debug/traces, observatory at /observatory)\n", a)
		}
	}

	gen := loadgen.New(loadgen.Config{
		Addr:         addr,
		Conns:        opt.conns,
		Rate:         opt.rate,
		HamFraction:  opt.ham,
		MaxRcptBatch: opt.rcptBatch,
		Warmup:       opt.warmup,
		Measure:      opt.measure,
		Soak:         opt.soak,
		SLO:          opt.slo,
		Seed:         opt.seed,
		Probe:        opt.probe,
		Obs:          obsv,
	})
	if reg != nil {
		gen.Register(reg)
	}
	rep, err := gen.Run()
	if err != nil {
		return nil, err
	}
	rep.WriteSummary(os.Stdout)

	if opt.benchOut != "" {
		out := struct {
			Experiment string          `json:"experiment"`
			Go         string          `json:"go"`
			Machine    string          `json:"machine"`
			Smoke      bool            `json:"smoke"`
			Report     *loadgen.Report `json:"report"`
		}{"soak", runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH, opt.smoke, rep}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(opt.benchOut, buf, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "wrote soak report to %s\n", opt.benchOut)
	}

	if opt.heapCheck > 0 {
		for _, p := range rep.Phases {
			if p.HeapMaxBytes > uint64(opt.heapCheck) {
				return rep, fmt.Errorf("heap check failed: phase %s watermark %d bytes exceeds ceiling %d",
					p.Name, p.HeapMaxBytes, opt.heapCheck)
			}
		}
		fmt.Printf("heap check ok: every phase watermark under %d bytes\n", opt.heapCheck)
	}
	return rep, nil
}
