// Command mailflow runs the benign-mail experiments of Section V: the
// webmail retry study (Table III), the MTA schedule survey (Table IV) and
// the deployment delay CDF (Figure 5). It can also sweep the greylisting
// threshold to expose the spam-blocked vs. benign-delay trade-off behind
// the paper's "use a very short threshold" recommendation, or — with
// -exp queue — run a live MTA retry queue against a greylisted victim
// domain in virtual time instead of evaluating the schedule analytically.
//
// Usage:
//
//	mailflow -exp table3|table4|fig5|sweep|queue [-threshold 6h] [-seed 1]
//	         [-days 120] [-rate 200] [-log out.log]
//	         [-mta sendmail] [-messages 5] [-trace out.jsonl]
//	         [-admin-addr 127.0.0.1:9926]
//
// With -admin-addr, an HTTP listener exposes process metrics on /metrics
// and live profiling on /debug/pprof/ for the duration of the run —
// useful for profiling long fig5 generations and threshold sweeps. For
// -exp queue it also serves the finished message traces on
// /debug/traces, and the observatory on /observatory (windows set by
// -obs-window and -obs-windows) rolls up the queue's retry delays.
//
// -trace (queue experiment only) records every queued message as an
// end-to-end trace — enqueue, MX walk, dials, server verbs, greylist
// verdict, retry scheduling, final outcome — and writes the finished
// traces as JSONL to the given file, or stdout for "-" behind a
// "# == trace snapshot (jsonl) ==" marker line after the report text.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
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
		exp       = flag.String("exp", "table3", "experiment: table3, table4, fig5, sweep, queue")
		threshold = flag.Duration("threshold", 6*time.Hour, "greylisting threshold for table3 and queue")
		seed      = flag.Int64("seed", 1, "random seed")
		days      = flag.Int("days", 120, "fig5 deployment length")
		rate      = flag.Int("rate", 200, "fig5 messages per day")
		logOut    = flag.String("log", "", "fig5: also write the raw synthetic log here")
		mtaName   = flag.String("mta", "sendmail", "queue: MTA retry schedule to run (sendmail, exim, postfix, qmail, courier, exchange)")
		messages  = flag.Int("messages", 5, "queue: benign messages to submit")
		traceOut  = flag.String("trace", "", "queue: write every message's end-to-end trace as JSONL to this file ('-' = stdout)")
		adminAddr = flag.String("admin-addr", "", "serve /metrics and /debug/pprof on this address for the duration of the run")

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

	var obsv *obs.Observatory
	if *adminAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterProcess(reg)
		var extra []metrics.Endpoint
		if tracer != nil {
			extra = append(extra, metrics.Endpoint{Path: "/debug/traces", Handler: tracer.Handler()})
		}
		// The live observatory rides the admin listener: the queue
		// experiment's retry scheduler feeds it, /observatory serves
		// the rollups greyctl renders. One-second windows by default —
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
