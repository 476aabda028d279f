// Package daemon is greylistd's one assembly: the greylisting engine
// with its whitelists and bypass chain, state recovery (a snapshot or
// the write-ahead log), TLS, the SMTP front end and its hooks, the
// optional Postfix policy service, the admin listener (metrics, traces,
// observatory, health checks), the GC ticker and the save at shutdown.
//
// Start takes greylistd's command line, so each setting and its
// default is declared once, in its flag definition. cmd/greylistd runs
// it as the daemon; the package's tests run it in-process on loopback
// ports. See DESIGN.md, "Daemon assembly".
package daemon

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bypass"
	"repro/internal/dialect"
	"repro/internal/dnsresolver"
	"repro/internal/greylist"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policyd"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/smtpserver"
	"repro/internal/spf"
	"repro/internal/trace"
)

// ErrUsage marks a command line the flag set rejected. The flag set
// has already written the reason and the usage text to the log writer.
var ErrUsage = errors.New("bad command line")

// Daemon is a running greylistd. Create it with Start; stop it with
// Close.
type Daemon struct {
	log   io.Writer
	state string // -state: the snapshot, or the WAL's checkpoint file

	g       *greylist.Greylister
	wal     *greylist.WAL
	srv     *smtpserver.Server
	smtpL   net.Listener
	policy  *policyd.Server
	policyL net.Listener
	reg     *metrics.Registry
	obsv    *obs.Observatory
	admin   *metrics.AdminServer

	errCh  chan error // the SMTP listener's failure; one sender, buffered 1
	gcStop chan struct{}
	wg     sync.WaitGroup // the serve goroutines and the GC ticker

	closeOnce sync.Once
	closeErr  error
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// Start parses greylistd's command line (argv[0] is the program name),
// builds the daemon, binds its SMTP, policy and admin ports, and only
// then starts serving. Status lines and one "accepted:" line per
// message go to log, which must be safe for concurrent writes.
//
// For -h Start returns flag.ErrHelp, and for a command line the flag
// set rejects an error wrapping ErrUsage; either way the flag set has
// already written the usage text to log. Settings that would crash the
// daemon or silently misconfigure it are refused before any file is
// opened or port bound. If Start fails after that, it closes whatever
// it opened, the WAL included, so no listener or goroutine is left.
func Start(argv []string, log io.Writer) (_ *Daemon, err error) {
	fs := flag.NewFlagSet(argv[0], flag.ContinueOnError)
	fs.SetOutput(log)
	var (
		listen      = fs.String("listen", ":2525", "address to listen on")
		hostname    = fs.String("hostname", "greylistd.local", "announced hostname")
		threshold   = fs.Duration("threshold", 300*time.Second, "greylisting threshold")
		retryWindow = fs.Duration("retry-window", 48*time.Hour, "how long a deferred triplet awaits its retry")
		maxAge      = fs.Duration("max-age", 35*24*time.Hour, "lifetime of passed triplets")
		autoWL      = fs.Int("auto-whitelist", 5, "deliveries before a client is auto-whitelisted (0 = off)")
		subnet      = fs.Bool("subnet", false, "key triplets by /24 network instead of full IP")
		whiteexp    = fs.Duration("whiteexp", 0, "earned-whitelist lifetime: a client that completes one greylisting dance skips the dance entirely until this long after its last delivery (0 = off; postgrey's --whiteexp)")
		spfKey      = fs.Bool("spf", false, "re-key triplets by sender domain when SPF passes, so a provider's rotating pool continues one dance (needs -dns)")
		dnswl       = fs.String("dnswl", "", "DNS whitelist origin (e.g. list.dnswl.org): listed clients bypass greylisting (needs -dns)")
		rdns        = fs.Bool("rdns", false, "bypass greylisting for clients whose PTR name looks like a dedicated mail server (needs -dns)")
		dnsAddr     = fs.String("dns", "", "upstream DNS server (host:port) the -spf/-dnswl/-rdns bypass stages query")
		state       = fs.String("state", "", "state file for persistence across restarts")
		walPath     = fs.String("wal", "", "write-ahead log file: journal every mutation so a crash loses at most the unsynced tail (requires -state, which becomes the checkpoint file)")
		walSync     = fs.String("wal-sync", "interval", "wal fsync policy: always, interval or none")
		walSyncIntv = fs.Duration("wal-sync-interval", time.Second, "fsync cadence under -wal-sync interval")
		walCompact  = fs.Int64("wal-compact-every", 16<<20, "bytes of wal growth before checkpoint compaction (<0 disables)")
		gcEvery     = fs.Duration("gc", 10*time.Minute, "state garbage-collection interval")
		fingerprint = fs.Bool("fingerprint", false, "log an SMTP-dialect fingerprint for every session")
		rcptBatch   = fs.Int("rcpt-batch", 64, "max pipelined RCPT commands decided per engine batch (RFC 2920 clients); replies are per-RCPT identical to serial handling")
		policyAddr  = fs.String("policy-listen", "", "also serve the Postfix policy-delegation protocol on this address (for check_policy_service)")
		tlsCert     = fs.String("tls-cert", "", "TLS certificate file for STARTTLS (with -tls-key)")
		tlsKey      = fs.String("tls-key", "", "TLS key file for STARTTLS")
		tlsSelf     = fs.Bool("tls-self-signed", false, "enable STARTTLS with an ephemeral self-signed certificate")
		adminAddr   = fs.String("admin-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9925)")
		traceRing   = fs.Int("trace-ring", 1024, "slots in the ring of sampled session traces on /debug/traces: deferred, failed and slow sessions plus 1 in 64 of the rest (0 = tracing off); needs -admin-addr")
		obsWindow   = fs.Duration("obs-window", 10*time.Second, "observatory rollup window duration; needs -admin-addr")
		obsWindows  = fs.Int("obs-windows", 30, "observatory ring length (closed windows kept for /observatory)")
	)
	var whitelistCIDRs, unprotect stringList
	fs.Var(&whitelistCIDRs, "whitelist-ip", "client CIDR to exempt (repeatable)")
	fs.Var(&unprotect, "unprotect", "recipient mailbox to exempt (repeatable)")
	if err := fs.Parse(argv[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrUsage, err)
	}

	switch {
	case *gcEvery <= 0:
		// time.NewTicker panics on a non-positive interval.
		return nil, fmt.Errorf("-gc must be positive (got %v)", *gcEvery)
	case (*tlsCert == "") != (*tlsKey == ""):
		return nil, fmt.Errorf("-tls-cert and -tls-key must be given together")
	case *tlsSelf && *tlsCert != "":
		return nil, fmt.Errorf("-tls-self-signed cannot be combined with -tls-cert/-tls-key")
	case (*spfKey || *dnswl != "" || *rdns) && *dnsAddr == "":
		return nil, fmt.Errorf("-spf/-dnswl/-rdns need -dns (the upstream resolver to query)")
	case *walPath != "" && *state == "":
		return nil, fmt.Errorf("-wal requires -state (the checkpoint file compaction maintains)")
	}
	var syncPolicy greylist.SyncPolicy
	if *walPath != "" {
		if syncPolicy, err = greylist.ParseSyncPolicy(*walSync); err != nil {
			return nil, err
		}
	}

	d := &Daemon{log: log, state: *state, errCh: make(chan error, 1), gcStop: make(chan struct{})}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.abort())
		}
	}()

	policy := greylist.Policy{
		Threshold:             *threshold,
		RetryWindow:           *retryWindow,
		PassLifetime:          *maxAge,
		AutoWhitelistAfter:    *autoWL,
		AutoWhitelistLifetime: *maxAge,
		EarnedLifetime:        *whiteexp,
		SubnetKeying:          *subnet,
	}
	g := greylist.New(policy, simtime.Real{})
	d.g = g
	for _, cidr := range whitelistCIDRs {
		if err := g.Whitelist().AddCIDR(cidr); err != nil {
			return nil, err
		}
	}
	for _, rcpt := range unprotect {
		g.Whitelist().AddRecipient(rcpt)
	}

	// The bypass chain: DNS-backed stages evaluated ahead of the triplet
	// check (after the static whitelist), failing open to plain
	// greylisting on DNS trouble. See DESIGN.md, "Bypass chain".
	var stages []greylist.Stage
	if *spfKey || *dnswl != "" || *rdns {
		res := dnsresolver.New(dnsresolver.UDP(*dnsAddr, 5*time.Second), simtime.Real{})
		if *spfKey {
			stages = append(stages, bypass.SPF(spf.NewCached(spf.New(res), spf.CacheConfig{})))
		}
		if *dnswl != "" {
			stages = append(stages, bypass.DNSWL(res, *dnswl, bypass.CacheConfig{}))
		}
		if *rdns {
			stages = append(stages, bypass.RDNS(res, bypass.CacheConfig{}))
		}
		chain := append([]greylist.Stage{greylist.WhitelistStage(g.Whitelist())}, stages...)
		g.SetChain(greylist.NewChain(chain...))
		names := make([]string, len(stages))
		for i, s := range stages {
			names[i] = s.Name()
		}
		fmt.Fprintf(log, "bypass chain: whitelist -> %s (dns %s)\n",
			strings.Join(names, " -> "), *dnsAddr)
	}
	if *state != "" && *walPath == "" {
		if err := loadState(g, *state, log); err != nil {
			return nil, err
		}
	}

	var tlsConfig *tls.Config
	switch {
	case *tlsCert != "":
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			return nil, fmt.Errorf("loading TLS keypair: %w", err)
		}
		tlsConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	case *tlsSelf:
		cert, err := smtpserver.SelfSignedCert(*hostname)
		if err != nil {
			return nil, err
		}
		tlsConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
		fmt.Fprintln(log, "STARTTLS enabled with an ephemeral self-signed certificate")
	}

	// The trace ring only matters when /debug/traces can serve it.
	var tracer *trace.Tracer
	if *adminAddr != "" && *traceRing > 0 {
		tracer = trace.New(*traceRing)
	}

	// With -wal, recovery (checkpoint + log replay with torn-tail
	// truncation) and all further persistence run through the WAL.
	if *walPath != "" {
		var info greylist.RecoverInfo
		d.wal, info, err = greylist.OpenWAL(greylist.WALConfig{
			Path:           *walPath,
			CheckpointPath: *state,
			Sync:           syncPolicy,
			SyncEvery:      *walSyncIntv,
			CompactBytes:   *walCompact,
			Tracer:         tracer,
		}, g)
		if err != nil {
			return nil, fmt.Errorf("opening wal: %w", err)
		}
		fmt.Fprintf(log,
			"wal: recovered from %s (checkpoint=%v, %d records replayed, %d torn bytes dropped, generation %d): %d pending, %d passed\n",
			*walPath, info.CheckpointLoaded, info.ReplayedRecords, info.TornBytes, info.Generation,
			g.PendingCount(), g.PassedCount())
	}

	d.srv = smtpserver.New(smtpserver.Config{
		Hostname:      *hostname,
		Clock:         simtime.Real{},
		TLS:           tlsConfig,
		StampReceived: true,
		ReadTimeout:   5 * time.Minute, // RFC 5321 §4.5.3.2
		MaxRcptBatch:  *rcptBatch,
		Tracer:        tracer,
		Hooks:         sessionHooks(g, log, *fingerprint),
	})
	if *policyAddr != "" {
		d.policy = policyd.New(g)
		d.policy.PrependHeader = true
		d.policy.SetTracer(tracer)
	}
	var endpoints []metrics.Endpoint
	if *adminAddr != "" {
		endpoints = d.instrument(stages, tracer, obs.Config{Window: *obsWindow, Windows: *obsWindows})
	}

	// Bind every port before anything serves, so a busy port fails the
	// start with nothing answering on the others.
	if d.smtpL, err = net.Listen("tcp", *listen); err != nil {
		return nil, err
	}
	if d.policy != nil {
		if d.policyL, err = net.Listen("tcp", *policyAddr); err != nil {
			return nil, err
		}
	}
	if *adminAddr != "" {
		// The admin listener binds and serves in one step, so it comes
		// last; the observatory rotates before /healthz can be asked.
		d.obsv.Start()
		if d.admin, err = metrics.ServeAdmin(*adminAddr, d.reg, endpoints...); err != nil {
			return nil, fmt.Errorf("admin listener: %w", err)
		}
	}

	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := d.srv.Serve(d.smtpL); err != nil {
			d.errCh <- err
		}
	}()
	if d.policy != nil {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := d.policy.Serve(d.policyL); err != nil {
				fmt.Fprintln(log, "policy server:", err)
			}
		}()
	}
	d.wg.Add(1)
	go d.collectGarbage(*gcEvery)

	fmt.Fprintf(log, "greylistd listening on %s (threshold %v, subnet keying %v)\n",
		d.smtpL.Addr(), *threshold, *subnet)
	if d.policyL != nil {
		fmt.Fprintf(log, "postfix policy service on %s (check_policy_service inet:%s)\n",
			d.policyL.Addr(), d.policyL.Addr())
	}
	if d.admin != nil {
		fmt.Fprintf(log, "admin endpoint on http://%s/metrics (pprof at /debug/pprof/)\n",
			d.admin.Addr())
		if tracer != nil {
			fmt.Fprintf(log, "sampled session traces on http://%s/debug/traces (ring of %d)\n",
				d.admin.Addr(), *traceRing)
		}
	}
	return d, nil
}

// loadState reads the snapshot at path into g. A missing file is a
// fresh start; any other stat error (permissions, a bad mount) refuses
// to start rather than silently re-greylist the world with an empty
// table.
func loadState(g *greylist.Greylister, path string, log io.Writer) error {
	switch _, err := os.Stat(path); {
	case err == nil:
		if err := g.LoadFile(path); err != nil {
			return fmt.Errorf("loading state: %w", err)
		}
		fmt.Fprintf(log, "restored state from %s (%d pending, %d passed)\n",
			path, g.PendingCount(), g.PassedCount())
		return nil
	case os.IsNotExist(err):
		return nil
	default:
		return fmt.Errorf("checking state file: %w", err)
	}
}

// deferReply answers a deferred RCPT with 451 4.7.1 and the remaining
// wait; nil accepts.
func deferReply(v greylist.Verdict) *smtpproto.Reply {
	if v.Decision == greylist.Pass {
		return nil
	}
	r := smtpproto.NewReply(451, "4.7.1",
		fmt.Sprintf("Greylisted, please retry in %d seconds", int(v.WaitRemaining.Seconds())))
	return &r
}

// sessionHooks puts g behind the SMTP verbs: RCPTs, lone or pipelined,
// get g's verdicts, and each accepted message is logged. With
// fingerprint, each session's SMTP-dialect fingerprint is logged too.
// OnSessionEnd is installed only then, because a non-nil hook makes
// the server keep a verb log for every connection.
func sessionHooks(g *greylist.Greylister, log io.Writer, fingerprint bool) smtpserver.Hooks {
	h := smtpserver.Hooks{
		OnRcptTraced: func(tr *trace.Trace, clientIP, sender, rcpt string) *smtpproto.Reply {
			return deferReply(g.CheckTraced(greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}, tr))
		},
		// Pipelined RCPT bursts take one trip through the engine's
		// locks instead of one per recipient, and a traced session
		// records one verdict per recipient. Replies are allocated
		// only when some recipient is deferred (nil accepts all).
		OnRcptBatchTraced: func(tr *trace.Trace, clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			ts := make([]greylist.Triplet, len(rcpts))
			for i, rcpt := range rcpts {
				ts[i] = greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}
			}
			var replies []*smtpproto.Reply
			for i, v := range g.CheckBatchTraced(ts, nil, tr) {
				if r := deferReply(v); r != nil {
					if replies == nil {
						replies = make([]*smtpproto.Reply, len(rcpts))
					}
					replies[i] = r
				}
			}
			return replies
		},
		OnMessage: func(env *smtpserver.Envelope) *smtpproto.Reply {
			fmt.Fprintf(log, "accepted: client=%s from=<%s> rcpts=%d bytes=%d\n",
				env.ClientIP, env.Sender, len(env.Recipients), len(env.Data))
			return nil
		},
	}
	if fingerprint {
		h.OnSessionEnd = func(tr *smtpserver.SessionTrace) {
			v := dialect.Analyze(tr)
			fmt.Fprintf(log, "fingerprint: client=%s %s suspicious=%v\n",
				tr.ClientIP, v, v.Suspicious())
		}
	}
	return h
}

// instrument builds what the admin listener serves: the metrics
// registry every layer registers in, the live observatory and the
// /healthz checks. It returns the endpoints to mount beside /metrics,
// /debug/traces among them when tracer is set.
func (d *Daemon) instrument(stages []greylist.Stage, tracer *trace.Tracer, obsCfg obs.Config) []metrics.Endpoint {
	g, reg := d.g, metrics.NewRegistry()
	d.reg = reg
	metrics.RegisterProcess(reg)
	g.Register(reg)
	d.srv.Register(reg)
	for _, s := range stages {
		if r, ok := s.(interface{ Register(*metrics.Registry) }); ok {
			r.Register(reg)
		}
	}
	if d.wal != nil {
		d.wal.Register(reg)
	}
	if d.policy != nil {
		d.policy.Register(reg)
	}
	var endpoints []metrics.Endpoint
	if tracer != nil {
		// /debug/traces serves the ring; the trailer appends the
		// latency exemplars that link histogram buckets to trace IDs.
		endpoints = append(endpoints, metrics.Endpoint{
			Path:    "/debug/traces",
			Handler: tracer.Handler(func(w io.Writer) { reg.WriteExemplars(w) }),
		})
	}

	// The live observatory: the engine feeds verdict sketches and
	// top-K sets on the hot path, cumulative counters are polled at
	// window rotation, and /observatory serves the windowed rollup
	// that greyctl renders.
	obsv := obs.New(obsCfg)
	d.obsv = obsv
	g.SetObserver(obsv.Greylist())
	obsv.WatchGreylist(g.Stats)
	if g.Chain() != nil {
		obsv.WatchChain(g.Chain)
	}
	if d.wal != nil {
		obsv.WatchWAL(d.wal)
	}
	srv := d.srv
	obsv.Cumulative("smtp.sessions.delivered", func() uint64 {
		n, _, _ := srv.OutcomeCounts()
		return n
	})
	obsv.Cumulative("smtp.sessions.deferred", func() uint64 {
		_, n, _ := srv.OutcomeCounts()
		return n
	})
	obsv.Cumulative("smtp.sessions.none", func() uint64 {
		_, _, n := srv.OutcomeCounts()
		return n
	})
	obsv.Register(reg)
	endpoints = append(endpoints, obsv.Endpoint())

	// /healthz readiness: real subsystem checks a load balancer can
	// drain on, in place of the trivial always-ok probe.
	health := metrics.NewHealth()
	if d.wal != nil {
		health.Add("wal", d.wal.Healthy)
	}
	if len(stages) > 0 {
		health.Add("bypass-chain", func() error {
			if ch := g.Chain(); ch == nil || ch.Len() == 0 {
				return fmt.Errorf("bypass chain not loaded")
			}
			return nil
		})
	}
	health.Add("observatory", obsv.Healthy)
	return append(endpoints, health.Endpoint())
}

// collectGarbage drops expired records every interval until Close.
func (d *Daemon) collectGarbage(every time.Duration) {
	defer d.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if n := d.g.GC(); n > 0 {
				fmt.Fprintf(d.log, "gc: dropped %d expired records\n", n)
			}
		case <-d.gcStop:
			return
		}
	}
}

// abort releases what a failed Start opened. Nothing has served yet,
// so there is no connection to drain; closing the WAL writes its final
// checkpoint like a clean shutdown.
func (d *Daemon) abort() error {
	if d.obsv != nil {
		d.obsv.Stop()
	}
	for _, l := range []net.Listener{d.smtpL, d.policyL} {
		if l != nil {
			l.Close()
		}
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			return fmt.Errorf("wal close: %w", err)
		}
	}
	return nil
}

// Close stops serving, waits for every goroutine Start started, and
// saves state: with -wal one final checkpoint compaction, otherwise a
// snapshot to -state when one is set. Only a failed save is returned.
// Later calls return the first call's result.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() { d.closeErr = d.close() })
	return d.closeErr
}

func (d *Daemon) close() error {
	close(d.gcStop)
	d.srv.Close()
	d.smtpL.Close() // Serve may not have taken the listener over yet
	if d.obsv != nil {
		d.obsv.Stop()
	}
	if d.policy != nil {
		d.policy.Close()
		d.policyL.Close()
	}
	if d.admin != nil {
		// Drain in-flight scrapes (a /debug/traces dump mid-shutdown
		// should finish) instead of snapping the listener shut.
		if err := d.admin.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(d.log, "admin shutdown:", err)
		}
	}
	d.wg.Wait()

	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			return fmt.Errorf("wal close: %w", err)
		}
		fmt.Fprintf(d.log, "wal: final checkpoint written to %s\n", d.state)
		return nil
	}
	if d.state != "" {
		if err := d.g.SaveFile(d.state); err != nil {
			return err
		}
		fmt.Fprintf(d.log, "saved state to %s\n", d.state)
	}
	return nil
}

// Err reports a failure of the SMTP listener: at most one error, from
// accepting connections.
func (d *Daemon) Err() <-chan error { return d.errCh }

// SMTPAddr is the bound SMTP address (useful with -listen :0).
func (d *Daemon) SMTPAddr() net.Addr { return d.smtpL.Addr() }

// AdminAddr is the bound admin address, or nil without -admin-addr.
func (d *Daemon) AdminAddr() net.Addr {
	if d.admin == nil {
		return nil
	}
	return d.admin.Addr()
}

// Stats returns the greylisting engine's cumulative counters.
func (d *Daemon) Stats() greylist.Stats { return d.g.Stats() }
