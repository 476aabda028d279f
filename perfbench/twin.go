package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bypass"
	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/greylist"
	"repro/internal/hdr"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/smtpserver"
	"repro/internal/spf"
	"repro/internal/trace"
)

// serve runs the traced assembly: greylistd's layers built from their
// public constructors with the flag values the benchmark gives
// greylistd, each public seam wrapped in a timer. /ledger on the admin
// listener reports the accumulated seam times. Only the flags the
// benchmark passes are accepted, so a new greylistd flag in the
// benchmark's command line fails loudly here instead of drifting.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "", "SMTP address")
		adminAddr   = fs.String("admin-addr", "", "admin address")
		state       = fs.String("state", "", "checkpoint file")
		walPath     = fs.String("wal", "", "write-ahead log")
		thresholdF  = fs.Duration("threshold", 300*time.Second, "greylisting threshold")
		compact     = fs.Int64("wal-compact-every", 16<<20, "compaction threshold")
		spfOn       = fs.Bool("spf", false, "SPF stage")
		dnswlOrigin = fs.String("dnswl", "", "DNSWL origin")
		rdnsOn      = fs.Bool("rdns", false, "rDNS stage")
		dnsAddr     = fs.String("dns", "", "DNS server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	led := &ledger{chainStart: make(map[greylist.Triplet]int64)}

	// greylistd's defaults for everything the benchmark leaves unset.
	policy := greylist.DefaultPolicy()
	policy.Threshold = *thresholdF
	g := greylist.New(policy, simtime.Real{})

	res := dnsresolver.New(&timedTransport{inner: dnsresolver.UDP(*dnsAddr, 5*time.Second), led: led}, simtime.Real{})
	var stages []greylist.Stage
	if *spfOn {
		stages = append(stages, bypass.SPF(spf.NewCached(spf.New(res), spf.CacheConfig{})))
	}
	if *dnswlOrigin != "" {
		stages = append(stages, bypass.DNSWL(res, *dnswlOrigin, bypass.CacheConfig{}))
	}
	if *rdnsOn {
		stages = append(stages, bypass.RDNS(res, bypass.CacheConfig{}))
	}
	all := append([]greylist.Stage{greylist.WhitelistStage(g.Whitelist())}, stages...)
	timed := make([]greylist.Stage, len(all))
	for i, s := range all {
		timed[i] = &timedStage{inner: s, led: led, idx: i, last: i == len(all)-1}
		led.stageNames = append(led.stageNames, s.Name())
	}
	led.stages = make([]stageTimes, len(all))
	g.SetChain(greylist.NewChain(timed...))

	tracer := trace.New(1024)
	led.heapBase = heapAfterGC()
	openStart := time.Now()
	wal, info, err := greylist.OpenWAL(greylist.WALConfig{
		Path:           *walPath,
		CheckpointPath: *state,
		Sync:           greylist.SyncInterval,
		SyncEvery:      time.Second,
		CompactBytes:   *compact,
		Tracer:         tracer,
	}, g)
	if err != nil {
		return fmt.Errorf("opening wal: %w", err)
	}
	led.recoverNs = time.Since(openStart).Nanoseconds()
	led.replayed = info.ReplayedRecords

	deferReply := func(v greylist.Verdict) *smtpproto.Reply {
		if v.Decision == greylist.Pass {
			return nil
		}
		r := smtpproto.NewReply(451, "4.7.1",
			fmt.Sprintf("Greylisted, please retry in %d seconds", int(v.WaitRemaining.Seconds())))
		return &r
	}
	srv := smtpserver.New(smtpserver.Config{
		Hostname:      "greylistd.local",
		Clock:         simtime.Real{},
		StampReceived: true,
		ReadTimeout:   5 * time.Minute,
		MaxRcptBatch:  64,
		Tracer:        tracer,
		Hooks: smtpserver.Hooks{
			OnRcptTraced: func(tr *trace.Trace, clientIP, sender, rcpt string) *smtpproto.Reply {
				h0 := nanotime()
				v := g.CheckTraced(greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}, tr)
				deferred := 0
				if v.Decision == greylist.Defer {
					deferred = 1
				}
				led.recordCheck(nanotime()-h0, 1, deferred)
				r := deferReply(v)
				led.hookNs.Add(nanotime() - h0)
				return r
			},
			OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
				h0 := nanotime()
				ts := make([]greylist.Triplet, len(rcpts))
				for i, rcpt := range rcpts {
					ts[i] = greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}
				}
				replies := make([]*smtpproto.Reply, len(rcpts))
				c0 := nanotime()
				vs := g.CheckBatch(ts, nil)
				c1 := nanotime()
				deferred := 0
				for i, v := range vs {
					if v.Decision == greylist.Defer {
						deferred++
					}
					replies[i] = deferReply(v)
				}
				led.recordCheck(c1-c0, len(rcpts), deferred)
				led.hookNs.Add(nanotime() - h0)
				return replies
			},
			OnMessage: func(env *smtpserver.Envelope) *smtpproto.Reply {
				h0 := nanotime()
				fmt.Fprintf(os.Stderr, "accepted: client=%s from=<%s> rcpts=%d bytes=%d\n",
					env.ClientIP, env.Sender, len(env.Recipients), len(env.Data))
				led.hookNs.Add(nanotime() - h0)
				return nil
			},
		},
	})
	inner, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(&timedListener{Listener: inner, led: led}) }()

	reg := metrics.NewRegistry()
	metrics.RegisterProcess(reg)
	g.Register(reg)
	srv.Register(reg)
	for _, s := range stages {
		if r, ok := s.(interface{ Register(*metrics.Registry) }); ok {
			r.Register(reg)
		}
	}
	wal.Register(reg)
	extra := []metrics.Endpoint{{
		Path:    "/debug/traces",
		Handler: tracer.Handler(func(w io.Writer) { reg.WriteExemplars(w) }),
	}}
	obsv := obs.New(obs.Config{Window: 10 * time.Second, Windows: 30})
	g.SetObserver(&timedObserver{inner: obsv.Greylist(), led: led})
	obsv.WatchGreylist(g.Stats)
	obsv.WatchChain(g.Chain)
	obsv.WatchWAL(wal)
	obsv.Cumulative("smtp.sessions.delivered", func() uint64 { d, _, _ := srv.OutcomeCounts(); return d })
	obsv.Cumulative("smtp.sessions.deferred", func() uint64 { _, d, _ := srv.OutcomeCounts(); return d })
	obsv.Cumulative("smtp.sessions.none", func() uint64 { _, _, n := srv.OutcomeCounts(); return n })
	obsv.Register(reg)
	extra = append(extra, obsv.Endpoint())
	health := metrics.NewHealth()
	health.Add("wal", wal.Healthy)
	health.Add("bypass-chain", func() error {
		if ch := g.Chain(); ch == nil || ch.Len() == 0 {
			return fmt.Errorf("bypass chain not loaded")
		}
		return nil
	})
	health.Add("observatory", obsv.Healthy)
	extra = append(extra, health.Endpoint())
	extra = append(extra, metrics.Endpoint{Path: "/ledger", Handler: led.handler(g, wal)})
	obsv.Start()
	defer obsv.Stop()
	admin, err := metrics.ServeAdmin(*adminAddr, reg, extra...)
	if err != nil {
		return fmt.Errorf("admin listener: %w", err)
	}
	defer admin.Close()

	// The seams with no call to wrap: a once-per-second WAL.Sync, timed,
	// and the ring backlog gauge sampled every 50 ms.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		syncTick := time.NewTicker(time.Second)
		sample := time.NewTicker(50 * time.Millisecond)
		defer syncTick.Stop()
		defer sample.Stop()
		var buf strings.Builder
		for {
			select {
			case <-stop:
				return
			case <-syncTick.C:
				t0 := nanotime()
				if err := wal.Sync(); err == nil {
					led.walSyncNs.Add(nanotime() - t0)
					led.walSyncs.Add(1)
				}
			case <-sample.C:
				buf.Reset()
				reg.WriteText(&buf)
				led.noteBacklog(gaugeValue(buf.String(), "wal_ring_backlog"))
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err = <-errCh:
	case <-sig:
	}
	close(stop)
	bg.Wait()
	srv.Close()
	return err
}

func gaugeValue(text, name string) int64 {
	i := strings.Index(text, "\n"+name+" ")
	if i < 0 {
		return 0
	}
	rest := text[i+len(name)+2:]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	v, _ := strconv.ParseFloat(rest, 64)
	return int64(v)
}

var monoBase = time.Now()

// nanotime is a monotonic nanosecond clock.
func nanotime() int64 { return int64(time.Since(monoBase)) }

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type stageTimes struct {
	ns, evals, errors atomic.Int64
}

// ledger accumulates the traced assembly's seam timings. Counters are
// atomics; the histograms and the per-triplet chain clock share mu.
type ledger struct {
	accepts                 atomic.Int64
	reads, writes           atomic.Int64
	readNs, writeNs         atomic.Int64
	betweenNs               atomic.Int64 // server compute between conn I/O calls
	hookNs                  atomic.Int64
	checkNs, checkCalls     atomic.Int64
	rcpts, deferred         atomic.Int64
	stageNames              []string
	stages                  []stageTimes
	obsNs, obsCalls         atomic.Int64
	dnsQueries, dnsNs       atomic.Int64
	walSyncNs, walSyncs     atomic.Int64
	backlogMax              atomic.Int64
	recoverNs               int64
	replayed                int
	heapBase                uint64
	mu                      sync.Mutex
	chainStart              map[greylist.Triplet]int64
	chainHist, batchHist    hdr.Hist // per-RCPT chain ns; per-call check ns
	chainTotalNs, chainRcpt int64
}

// recordCheck accounts one engine call (CheckTraced or CheckBatch)
// deciding n RCPTs.
func (l *ledger) recordCheck(ns int64, n, deferred int) {
	l.checkNs.Add(ns)
	l.checkCalls.Add(1)
	l.rcpts.Add(int64(n))
	l.deferred.Add(int64(deferred))
	l.mu.Lock()
	l.batchHist.Record(ns)
	l.mu.Unlock()
}

func (l *ledger) noteBacklog(v int64) {
	for {
		cur := l.backlogMax.Load()
		if v <= cur || l.backlogMax.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ledgerSnapshot is /ledger's JSON body: cumulative totals since start.
type ledgerSnapshot struct {
	Accepts, Reads, Writes, ReadNs, WriteNs, BetweenNs, HookNs int64
	CheckNs, CheckCalls, Rcpts, Deferred                       int64
	StageNames                                                 []string
	StageNs, StageEvals, StageErrors                           []int64
	ChainP99Ns, ChainNs, ChainRcpts                            int64
	BatchP99Ns                                                 int64
	ObsNs, ObsCalls                                            int64
	DNSQueries, DNSNs                                          int64
	WALRecords, WALBytes, WALFsyncs                            uint64
	WALSyncNs, WALSyncs, BacklogMax                            int64
	RecoverNs                                                  int64
	Replayed                                                   int
	Allocs                                                     uint64
	GCCPUSeconds, UserCPUSeconds                               float64
	HeapBytesPerTriplet                                        float64
}

func (l *ledger) handler(g *greylist.Greylister, wal *greylist.WAL) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := ledgerSnapshot{
			Accepts: l.accepts.Load(), Reads: l.reads.Load(), Writes: l.writes.Load(),
			ReadNs: l.readNs.Load(), WriteNs: l.writeNs.Load(), BetweenNs: l.betweenNs.Load(), HookNs: l.hookNs.Load(),
			CheckNs: l.checkNs.Load(), CheckCalls: l.checkCalls.Load(), Rcpts: l.rcpts.Load(), Deferred: l.deferred.Load(),
			StageNames: l.stageNames,
			ObsNs:      l.obsNs.Load(), ObsCalls: l.obsCalls.Load(),
			DNSQueries: l.dnsQueries.Load(), DNSNs: l.dnsNs.Load(),
			WALSyncNs: l.walSyncNs.Load(), WALSyncs: l.walSyncs.Load(), BacklogMax: l.backlogMax.Load(),
			RecoverNs: l.recoverNs, Replayed: l.replayed,
		}
		for i := range l.stages {
			s.StageNs = append(s.StageNs, l.stages[i].ns.Load())
			s.StageEvals = append(s.StageEvals, l.stages[i].evals.Load())
			s.StageErrors = append(s.StageErrors, l.stages[i].errors.Load())
		}
		l.mu.Lock()
		s.ChainP99Ns, s.ChainNs, s.ChainRcpts = l.chainHist.Quantile(0.99), l.chainTotalNs, l.chainRcpt
		s.BatchP99Ns = l.batchHist.Quantile(0.99)
		l.mu.Unlock()
		c := wal.Counts()
		s.WALRecords, s.WALBytes, s.WALFsyncs = c.Records, c.Bytes, c.Fsyncs
		samples := []rtmetrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/user:cpu-seconds"},
		}
		rtmetrics.Read(samples)
		s.Allocs = samples[0].Value.Uint64()
		s.GCCPUSeconds = samples[1].Value.Float64()
		s.UserCPUSeconds = samples[2].Value.Float64()
		if r.URL.Query().Get("final") == "1" {
			if n := g.PendingCount() + g.PassedCount(); n > 0 {
				s.HeapBytesPerTriplet = (float64(heapAfterGC()) - float64(l.heapBase)) / float64(n)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s)
	})
}

// timedListener counts accepts and wraps every connection.
type timedListener struct {
	net.Listener
	led *ledger
}

func (t *timedListener) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.led.accepts.Add(1)
	return &timedConn{Conn: c, led: t.led}, nil
}

// timedConn times Read and Write calls and the server's compute between
// them. A session goroutine owns its conn, so lastEnd needs no lock.
type timedConn struct {
	net.Conn
	led     *ledger
	lastEnd int64
}

func (c *timedConn) enter() int64 {
	t := nanotime()
	if c.lastEnd != 0 {
		c.led.betweenNs.Add(t - c.lastEnd)
	}
	return t
}

func (c *timedConn) Read(b []byte) (int, error) {
	t0 := c.enter()
	n, err := c.Conn.Read(b)
	c.lastEnd = nanotime()
	c.led.reads.Add(1)
	c.led.readNs.Add(c.lastEnd - t0)
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	t0 := c.enter()
	n, err := c.Conn.Write(b)
	c.lastEnd = nanotime()
	c.led.writes.Add(1)
	c.led.writeNs.Add(c.lastEnd - t0)
	return n, err
}

// timedStage times one bypass stage and, across the chain, each
// triplet's whole evaluation: the first stage starts the triplet's
// clock and the deciding (or last) stage stops it.
type timedStage struct {
	inner greylist.Stage
	led   *ledger
	idx   int
	last  bool
}

func (s *timedStage) Name() string { return s.inner.Name() }

func (s *timedStage) Eval(t greylist.Triplet) (greylist.StageOutcome, error) {
	t0 := nanotime()
	if s.idx == 0 {
		s.led.mu.Lock()
		s.led.chainStart[t] = t0
		s.led.mu.Unlock()
	}
	out, err := s.inner.Eval(t)
	t1 := nanotime()
	st := &s.led.stages[s.idx]
	st.ns.Add(t1 - t0)
	st.evals.Add(1)
	if err != nil {
		st.errors.Add(1)
	}
	decided := err == nil && (out.Action == greylist.StageBypass || out.Action == greylist.StageRekey && out.Domain != "")
	if decided || s.last {
		s.led.mu.Lock()
		if start, ok := s.led.chainStart[t]; ok {
			delete(s.led.chainStart, t)
			s.led.chainHist.Record(t1 - start)
			s.led.chainTotalNs += t1 - start
			s.led.chainRcpt++
		}
		s.led.mu.Unlock()
	}
	return out, err
}

// timedObserver times the observatory's verdict hook.
type timedObserver struct {
	inner greylist.Observer
	led   *ledger
}

func (o *timedObserver) ObserveVerdict(t greylist.Triplet, v greylist.Verdict, latencyNs int64) {
	t0 := nanotime()
	o.inner.ObserveVerdict(t, v, latencyNs)
	o.led.obsNs.Add(nanotime() - t0)
	o.led.obsCalls.Add(1)
}

// timedTransport times every DNS exchange the bypass stages make.
type timedTransport struct {
	inner dnsresolver.Transport
	led   *ledger
}

func (t *timedTransport) Exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	t0 := nanotime()
	m, err := t.inner.Exchange(q)
	t.led.dnsNs.Add(nanotime() - t0)
	t.led.dnsQueries.Add(1)
	return m, err
}
