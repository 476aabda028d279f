// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact end-to-end each iteration), plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics attached via b.ReportMetric carry the experiment's
// headline numbers (blocked shares, delays, classification error) so a
// benchmark run doubles as a results summary.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/botnet"
	"repro/internal/core"
	"repro/internal/dnsbl"
	"repro/internal/greylist"
	"repro/internal/lab"
	"repro/internal/maillog"
	"repro/internal/metrics"
	"repro/internal/mta"
	"repro/internal/mtaqueue"
	"repro/internal/nolist"
	"repro/internal/report"
	"repro/internal/scan"
	"repro/internal/simtime"
	"repro/internal/smtpclient"
	"repro/internal/webmail"
)

func benchOpts() report.Options {
	return report.Options{
		Seed:              1,
		ScanDomains:       5000,
		Recipients:        20,
		LogDays:           30,
		LogMessagesPerDay: 100,
	}
}

// BenchmarkTable1MalwareDataset regenerates Table I.
func BenchmarkTable1MalwareDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := report.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2NolistingAdoption runs the full two-scan adoption study on
// a 5000-domain synthetic Internet.
func BenchmarkFig2NolistingAdoption(b *testing.B) {
	var nolistingFrac, misclassified float64
	for i := 0; i < b.N; i++ {
		pop, err := scan.Generate(scan.DefaultConfig(5000, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		clock := simtime.NewSim(simtime.Epoch)
		res := scan.RunStudy(pop, clock, 56*24*time.Hour)
		nolistingFrac = res.Fractions[nolist.CatNolisting]
		misclassified = float64(res.Misclassified)
	}
	b.ReportMetric(nolistingFrac*100, "%nolisting")
	b.ReportMetric(misclassified, "misclassified")
}

// BenchmarkTable2DefenseMatrix runs all 11 samples against both defenses.
func BenchmarkTable2DefenseMatrix(b *testing.B) {
	var effective int
	for i := 0; i < b.N; i++ {
		rows, err := lab.RunTableII(10)
		if err != nil {
			b.Fatal(err)
		}
		effective = 0
		for _, r := range rows {
			if r.GreylistingEffective {
				effective++
			}
			if r.NolistingEffective {
				effective++
			}
		}
	}
	// Table II ground truth: greylisting effective for 5 samples
	// (3 Cutwail + 2 Darkmailer), nolisting for 6 (Kelihos).
	b.ReportMetric(float64(effective), "effective-cells")
}

// BenchmarkFig3KelihosCDF regenerates both Figure 3 curves.
func BenchmarkFig3KelihosCDF(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		for _, th := range []time.Duration{5 * time.Second, 300 * time.Second} {
			cdf, _, err := lab.KelihosDeliveryCDF(th, 30)
			if err != nil {
				b.Fatal(err)
			}
			median = cdf.Median()
		}
	}
	b.ReportMetric(median, "median-delay-s")
}

// BenchmarkFig4KelihosTimeline regenerates the 6-hour-threshold timeline.
func BenchmarkFig4KelihosTimeline(b *testing.B) {
	var delivered float64
	for i := 0; i < b.N; i++ {
		points, err := lab.KelihosTimeline(21600*time.Second, 30)
		if err != nil {
			b.Fatal(err)
		}
		delivered = 0
		for _, p := range points {
			if p.Delivered {
				delivered++
			}
		}
	}
	b.ReportMetric(delivered, "delivered")
}

// BenchmarkFig5DeploymentCDF synthesizes a month of deployment logs and
// computes the benign-delay CDF.
func BenchmarkFig5DeploymentCDF(b *testing.B) {
	var p10 float64
	cfg := maillog.DefaultGeneratorConfig(1)
	cfg.Days = 30
	cfg.MessagesPerDay = 100
	for i := 0; i < b.N; i++ {
		entries, _, err := maillog.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p10 = maillog.Fig5CDF(entries).P(600)
	}
	b.ReportMetric(p10, "P(delay<=10min)")
}

// BenchmarkTable3Webmail simulates all ten providers against the 6-hour
// threshold.
func BenchmarkTable3Webmail(b *testing.B) {
	var lost float64
	for i := 0; i < b.N; i++ {
		lost = 0
		for _, r := range webmail.SimulateAll(6 * time.Hour) {
			if !r.Delivered {
				lost++
			}
		}
	}
	b.ReportMetric(lost, "providers-losing-mail")
}

// BenchmarkTable4MTASchedules expands every Table IV schedule over its
// full queue lifetime.
func BenchmarkTable4MTASchedules(b *testing.B) {
	var attempts int
	for i := 0; i < b.N; i++ {
		attempts = 0
		for _, s := range mta.All() {
			attempts += len(s.AttemptTimes(0))
		}
	}
	b.ReportMetric(float64(attempts), "total-attempts")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationDefenseComposition measures blocked botnet-spam share
// for each defense configuration (the paper's Section VI argument).
func BenchmarkAblationDefenseComposition(b *testing.B) {
	for _, defense := range []core.Defense{
		core.DefenseNone, core.DefenseNolisting, core.DefenseGreylisting, core.DefenseBoth,
	} {
		b.Run(defense.String(), func(b *testing.B) {
			var blocked float64
			for i := 0; i < b.N; i++ {
				blocked = 0
				for _, f := range botnet.Families() {
					l, err := lab.New(lab.Config{Defense: defense})
					if err != nil {
						b.Fatal(err)
					}
					res, err := l.RunSample(f, 1, 10)
					l.Close()
					if err != nil {
						b.Fatal(err)
					}
					if res.Blocked() {
						blocked += f.BotnetSpamShare
					}
				}
			}
			b.ReportMetric(blocked, "%botnet-spam-blocked")
		})
	}
}

// BenchmarkAblationThresholdSweep measures the benign-delay cost per
// threshold choice.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	for _, th := range []time.Duration{5 * time.Second, 300 * time.Second, 6 * time.Hour} {
		b.Run(th.String(), func(b *testing.B) {
			var median float64
			for i := 0; i < b.N; i++ {
				var delays []float64
				for _, s := range mta.All() {
					if d, ok := s.DeliveryDelay(th); ok {
						delays = append(delays, d.Seconds())
					}
				}
				sum := 0.0
				for _, d := range delays {
					sum += d
				}
				median = sum / float64(len(delays))
			}
			b.ReportMetric(median, "mean-benign-delay-s")
		})
	}
}

// BenchmarkAblationSubnetKeying compares full-IP and /24 triplet keying:
// Postgrey's --lookup-by-subnet forgives webmail IP rotation at the cost
// of a coarser spam key.
func BenchmarkAblationSubnetKeying(b *testing.B) {
	run := func(b *testing.B, subnet bool) {
		var gmailDelay float64
		for i := 0; i < b.N; i++ {
			clock := simtime.NewSim(simtime.Epoch)
			policy := greylist.Policy{
				Threshold:    300 * time.Second,
				RetryWindow:  48 * time.Hour,
				SubnetKeying: subnet,
			}
			g := greylist.New(policy, clock)
			p := webmail.Gmail()
			pool := p.DefaultPool(0)
			start := clock.Now()
			for k, at := range p.AttemptTimes() {
				clock.AdvanceTo(start.Add(at))
				v := g.Check(greylist.Triplet{
					ClientIP:  p.IPForAttempt(k, pool),
					Sender:    "u@gmail.com",
					Recipient: "v@dept.example",
				})
				if v.Decision == greylist.Pass {
					gmailDelay = at.Seconds()
					break
				}
			}
		}
		b.ReportMetric(gmailDelay, "gmail-delay-s")
	}
	b.Run("full-ip", func(b *testing.B) { run(b, false) })
	b.Run("subnet-24", func(b *testing.B) { run(b, true) })
}

// benchTriplets builds the benchmark working set: 1024 triplets from one
// client, 26 distinct recipients.
func benchTriplets() []greylist.Triplet {
	triplets := make([]greylist.Triplet, 1024)
	for i := range triplets {
		triplets[i] = greylist.Triplet{
			ClientIP:  "203.0.113.9",
			Sender:    "bulk@sender.example",
			Recipient: "user" + string(rune('a'+i%26)) + "@dept.example",
		}
	}
	return triplets
}

// promoteAll drives every triplet through first-seen and an accepted
// retry so the engine holds them all as passed — the warmed serving
// state where nearly every production check lands.
func promoteAll(b *testing.B, g *greylist.Greylister, clock *simtime.Sim, triplets []greylist.Triplet) {
	b.Helper()
	for _, t := range triplets {
		g.Check(t)
	}
	clock.Advance(301 * time.Second)
	for _, t := range triplets {
		if v := g.Check(t); v.Decision != greylist.Pass {
			b.Fatalf("promotion failed: %+v", v)
		}
	}
}

// BenchmarkGreylistCheck measures the policy engine's decision paths with
// allocation reporting: the write-locked pending path, the read-locked
// known-passed fast path (the production steady state — must be
// 0 allocs/op), and the auto-whitelisted client path.
func BenchmarkGreylistCheck(b *testing.B) {
	b.Run("pending", func(b *testing.B) {
		g := greylist.New(greylist.DefaultPolicy(), simtime.NewSim(simtime.Epoch))
		triplets := benchTriplets()
		for _, t := range triplets {
			g.Check(t) // records exist; every timed check is a too-soon retry
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Check(triplets[i%len(triplets)])
		}
	})
	b.Run("known-passed", func(b *testing.B) {
		clock := simtime.NewSim(simtime.Epoch)
		p := greylist.DefaultPolicy()
		p.AutoWhitelistAfter = 0 // isolate the passed-triplet path
		g := greylist.New(p, clock)
		triplets := benchTriplets()
		promoteAll(b, g, clock, triplets)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Check(triplets[i%len(triplets)])
		}
	})
	b.Run("known-passed-instrumented", func(b *testing.B) {
		// Same path with the metrics registry attached: the latency
		// histogram observation must keep the fast path at 0 allocs/op.
		clock := simtime.NewSim(simtime.Epoch)
		p := greylist.DefaultPolicy()
		p.AutoWhitelistAfter = 0
		g := greylist.New(p, clock)
		g.Register(metrics.NewRegistry())
		triplets := benchTriplets()
		promoteAll(b, g, clock, triplets)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Check(triplets[i%len(triplets)])
		}
	})
	b.Run("auto-whitelisted", func(b *testing.B) {
		clock := simtime.NewSim(simtime.Epoch)
		g := greylist.New(greylist.DefaultPolicy(), clock)
		triplets := benchTriplets()
		promoteAll(b, g, clock, triplets) // >5 deliveries: client auto-whitelisted
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Check(triplets[i%len(triplets)])
		}
	})
}

// BenchmarkGreylistCheckParallel measures concurrent checks against a
// warmed store (every triplet passed): readers share the RWMutex fast
// path.
func BenchmarkGreylistCheckParallel(b *testing.B) {
	clock := simtime.NewSim(simtime.Epoch)
	g := greylist.New(greylist.DefaultPolicy(), clock)
	triplets := benchTriplets()
	promoteAll(b, g, clock, triplets)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g.Check(triplets[i%len(triplets)])
			i++
		}
	})
}

// BenchmarkGreylistCheckBatch measures the batch API on a pipelined-style
// burst of 32 known-passed triplets, one locking round-trip per batch.
// ns/op is per batch (divide by 32 for per-check cost); the out slice is
// reused so the steady state allocates nothing.
func BenchmarkGreylistCheckBatch(b *testing.B) {
	const batch = 32
	clock := simtime.NewSim(simtime.Epoch)
	g := greylist.New(greylist.DefaultPolicy(), clock)
	triplets := benchTriplets()[:batch]
	promoteAll(b, g, clock, triplets)
	out := make([]greylist.Verdict, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = g.CheckBatch(triplets, out)
	}
	if out[0].Decision != greylist.Pass {
		b.Fatalf("batch verdict: %+v", out[0])
	}
}

// BenchmarkScanStudyWorkers runs the Fig 2 two-scan study serially and
// with the parallel domain scanner; the outputs are byte-identical, only
// wall-clock differs.
func BenchmarkScanStudyWorkers(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers-%d", workers)
		if workers == 0 {
			name = "workers-gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pop, err := scan.Generate(scan.DefaultConfig(3000, 1))
				if err != nil {
					b.Fatal(err)
				}
				clock := simtime.NewSim(simtime.Epoch)
				res := scan.RunStudyWorkers(pop, clock, 56*24*time.Hour, workers)
				if res.EmailServers == 0 {
					b.Fatal("empty study")
				}
			}
		})
	}
}

// BenchmarkRunStudy100k runs the two-scan adoption study on a
// paper-scale 100k-domain population with allocation reporting — the
// headline number for the streaming scan pipeline (BENCH_scan.json
// tracks B/op and allocs/op against the pre-streaming implementation).
func BenchmarkRunStudy100k(b *testing.B) {
	pop, err := scan.Generate(scan.DefaultConfig(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := simtime.NewSim(simtime.Epoch)
		res := scan.RunStudyWorkers(pop, clock, 56*24*time.Hour, 0)
		if res.EmailServers == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkRunStream100k runs the same 100k study through the
// disk-backed streaming pipeline (derived population, columnar verdict
// checkpoints, streaming join). Allocation reporting here covers the
// whole run including file I/O; the flat-heap claim at 1M/10M/135M is
// recorded in BENCH_scan.json from `nolistscan -stream` runs.
func BenchmarkRunStream100k(b *testing.B) {
	cfg := scan.DefaultConfig(100000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := scan.RunStream(cfg, scan.StreamOpts{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if res.EmailServers == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkScanDomain measures one domain observation on the glue-present
// dataset-join path; the steady state must stay at 0 allocs/op (asserted
// by TestScanDomainZeroAlloc).
func BenchmarkScanDomain(b *testing.B) {
	cfg := scan.DefaultConfig(2000, 1)
	cfg.NoGlueFrac = 0
	cfg.TransientFailure = 0
	pop, err := scan.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := scan.NewScanner(pop, nil)
	s.UseDataset(scan.BannerGrab(pop, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScanDomain(pop.Specs[i%len(pop.Specs)].Name)
	}
}

// BenchmarkEndToEndReport regenerates every artifact back to back — the
// "full reproduction" cost — serially and on the experiment worker pool
// (byte-identical output either way).
func BenchmarkEndToEndReport(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts()
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := report.All(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSwarmCost measures greylist state growth and reclamation under
// a fire-and-forget botnet swarm (the Section VI cost discussion).
func BenchmarkSwarmCost(b *testing.B) {
	var pending int
	for i := 0; i < b.N; i++ {
		res, err := lab.SwarmCost(50, 10)
		if err != nil {
			b.Fatal(err)
		}
		pending = res.PendingRecords
	}
	b.ReportMetric(float64(pending), "pending-records")
}

// BenchmarkMTAQueueLive runs a real queueing MTA (postfix schedule)
// through greylisting end to end.
func BenchmarkMTAQueueLive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := lab.New(lab.Config{Defense: core.DefenseGreylisting})
		if err != nil {
			b.Fatal(err)
		}
		m, err := mtaqueue.New(mtaqueue.Config{
			Schedule: mta.Postfix(),
			Resolver: l.Resolver,
			Dialer:   &smtpclient.SimDialer{Net: l.Net, LocalIP: "192.0.2.9"},
			Sched:    l.Sched,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			m.Submit(lab.TargetDomain, smtpclient.Message{
				From: fmt.Sprintf("a%d@s.example", j),
				To:   []string{fmt.Sprintf("u%d@%s", j, lab.TargetDomain)},
				Data: []byte("Subject: b\r\n\r\nx\r\n"),
			})
		}
		l.Sched.Run()
		_, delivered, _ := m.Summary()
		l.Close()
		if delivered != 10 {
			b.Fatalf("delivered = %d", delivered)
		}
	}
}

// BenchmarkObsolescence runs the Results Validity projection sweep.
func BenchmarkObsolescence(b *testing.B) {
	var atHalf float64
	for i := 0; i < b.N; i++ {
		points, err := lab.Obsolescence([]float64{0, 0.5, 1}, 5)
		if err != nil {
			b.Fatal(err)
		}
		atHalf = points[1].BlockedByDefense[core.DefenseBoth]
	}
	b.ReportMetric(atHalf, "both-blocked-at-50%-evolution")
}

// BenchmarkSynergy runs the greylisting+DNSBL race at a fast feed.
func BenchmarkSynergy(b *testing.B) {
	var blocked float64
	for i := 0; i < b.N; i++ {
		res, err := dnsbl.Synergy(60*time.Second, 5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		blocked = float64(res.DeliveredGreylistOnly - res.DeliveredWithDNSBL)
	}
	b.ReportMetric(blocked, "spam-converted-to-blocks")
}
