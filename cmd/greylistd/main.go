// Command greylistd is a standalone greylisting SMTP server — a usable
// Postgrey-style daemon built on the reproduction's library. It answers
// real SMTP on a TCP port, defers unknown (client IP, sender, recipient)
// triplets with 451 4.7.1, accepts retries past the threshold, supports
// client/recipient whitelists and persists its state across restarts.
//
// Usage:
//
//	greylistd [-listen :2525] [-hostname mx.example.org]
//	          [-threshold 300s] [-retry-window 48h] [-max-age 840h]
//	          [-auto-whitelist 5] [-whiteexp 0] [-subnet] [-state greylist.db]
//	          [-wal greylist.wal] [-wal-sync interval] [-wal-compact-every 16777216]
//	          [-rcpt-batch 64] [-admin-addr 127.0.0.1:9925]
//	          [-trace-ring 1024]
//	          [-dns 9.9.9.9:53] [-spf] [-dnswl list.dnswl.org] [-rdns]
//	          [-whitelist-ip CIDR]... [-unprotect postmaster@dom]...
//
// The -spf, -dnswl and -rdns flags enable bypass-chain stages evaluated
// ahead of the triplet check (they need -dns, the upstream resolver to
// query): SPF-passing senders continue one dance per domain however
// their pool rotates, DNSWL-listed clients and mail-server-named
// clients skip the dance, and any DNS trouble fails open to plain
// greylisting. -whiteexp grants clients that complete one dance an
// auto-renewed whitelist entry (journaled through the WAL like all
// state). See DESIGN.md, "Bypass chain".
//
// Without -wal, state is written only on clean shutdown, so a crash
// loses everything since startup. With -wal, every state mutation is
// journaled to a write-ahead log as it happens (-state becomes the
// checkpoint file compaction maintains), and a SIGKILLed daemon
// restarts with its pending/passed/auto-whitelist tables intact up to
// the last fsync (-wal-sync: "always" per batch, "interval" once per
// -wal-sync-interval, "none" leaves it to the OS). See DESIGN.md,
// "Durability".
//
// With -admin-addr, an HTTP listener exposes Prometheus metrics on
// /metrics, live profiling on /debug/pprof/ and — when -trace-ring is
// nonzero — the most recent finished session traces on /debug/traces
// (filter with ?outcome=, ?defense=, ?min_attempts=; see DESIGN.md,
// "Tracing"). Each trace follows one SMTP session verb by verb through
// its greylist verdicts to the final outcome.
//
// The admin listener also carries the live observatory: /observatory
// serves versioned JSON rollups — per-window verdict counters, retry
// delay and check-latency quantile sketches, top-K clients and senders
// per verdict class and bypass stage — over a ring of -obs-window ×
// -obs-windows windows (greyctl renders it: top, delay, stages,
// watch), and /healthz answers 200 only while the WAL consumer, the
// bypass chain and the observatory ring are all healthy. See
// DESIGN.md, "Observatory".
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
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

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "greylistd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", ":2525", "address to listen on")
		hostname    = flag.String("hostname", "greylistd.local", "announced hostname")
		threshold   = flag.Duration("threshold", 300*time.Second, "greylisting threshold")
		retryWindow = flag.Duration("retry-window", 48*time.Hour, "how long a deferred triplet awaits its retry")
		maxAge      = flag.Duration("max-age", 35*24*time.Hour, "lifetime of passed triplets")
		autoWL      = flag.Int("auto-whitelist", 5, "deliveries before a client is auto-whitelisted (0 = off)")
		subnet      = flag.Bool("subnet", false, "key triplets by /24 network instead of full IP")
		whiteexp    = flag.Duration("whiteexp", 0, "earned-whitelist lifetime: a client that completes one greylisting dance skips the dance entirely until this long after its last delivery (0 = off; postgrey's --whiteexp)")
		spfKey      = flag.Bool("spf", false, "re-key triplets by sender domain when SPF passes, so a provider's rotating pool continues one dance (needs -dns)")
		dnswl       = flag.String("dnswl", "", "DNS whitelist origin (e.g. list.dnswl.org): listed clients bypass greylisting (needs -dns)")
		rdns        = flag.Bool("rdns", false, "bypass greylisting for clients whose PTR name looks like a dedicated mail server (needs -dns)")
		dnsAddr     = flag.String("dns", "", "upstream DNS server (host:port) the -spf/-dnswl/-rdns bypass stages query")
		state       = flag.String("state", "", "state file for persistence across restarts")
		walPath     = flag.String("wal", "", "write-ahead log file: journal every mutation so a crash loses at most the unsynced tail (requires -state, which becomes the checkpoint file)")
		walSync     = flag.String("wal-sync", "interval", "wal fsync policy: always, interval or none")
		walSyncIntv = flag.Duration("wal-sync-interval", time.Second, "fsync cadence under -wal-sync interval")
		walCompact  = flag.Int64("wal-compact-every", 16<<20, "bytes of wal growth before checkpoint compaction (<0 disables)")
		gcEvery     = flag.Duration("gc", 10*time.Minute, "state garbage-collection interval")
		fingerprint = flag.Bool("fingerprint", false, "log an SMTP-dialect fingerprint for every session")
		rcptBatch   = flag.Int("rcpt-batch", 64, "max pipelined RCPT commands decided per engine batch (RFC 2920 clients); replies are per-RCPT identical to serial handling")
		policyAddr  = flag.String("policy-listen", "", "also serve the Postfix policy-delegation protocol on this address (for check_policy_service)")
		tlsCert     = flag.String("tls-cert", "", "TLS certificate file for STARTTLS (with -tls-key)")
		tlsKey      = flag.String("tls-key", "", "TLS key file for STARTTLS")
		tlsSelf     = flag.Bool("tls-self-signed", false, "enable STARTTLS with an ephemeral self-signed certificate")
		adminAddr   = flag.String("admin-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9925)")
		traceRing   = flag.Int("trace-ring", 1024, "finished session traces kept for /debug/traces (0 = tracing off); needs -admin-addr")
		obsWindow   = flag.Duration("obs-window", 10*time.Second, "observatory rollup window duration; needs -admin-addr")
		obsWindows  = flag.Int("obs-windows", 30, "observatory ring length (closed windows kept for /observatory)")
	)
	var whitelistCIDRs, unprotect stringList
	flag.Var(&whitelistCIDRs, "whitelist-ip", "client CIDR to exempt (repeatable)")
	flag.Var(&unprotect, "unprotect", "recipient mailbox to exempt (repeatable)")
	flag.Parse()

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
	for _, cidr := range whitelistCIDRs {
		if err := g.Whitelist().AddCIDR(cidr); err != nil {
			return err
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
		if *dnsAddr == "" {
			return fmt.Errorf("-spf/-dnswl/-rdns need -dns (the upstream resolver to query)")
		}
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
		fmt.Fprintf(os.Stderr, "bypass chain: whitelist -> %s (dns %s)\n",
			strings.Join(names, " -> "), *dnsAddr)
	}
	if *walPath != "" && *state == "" {
		return fmt.Errorf("-wal requires -state (the checkpoint file compaction maintains)")
	}
	if *state != "" && *walPath == "" {
		// Without a WAL the state file is loaded once here. A missing
		// file is a fresh start; any other stat error (permissions, a
		// bad mount) must refuse to start rather than silently
		// re-greylist the world with an empty table.
		switch _, err := os.Stat(*state); {
		case err == nil:
			if err := g.LoadFile(*state); err != nil {
				return fmt.Errorf("loading state: %w", err)
			}
			fmt.Fprintf(os.Stderr, "restored state from %s (%d pending, %d passed)\n",
				*state, g.PendingCount(), g.PassedCount())
		case os.IsNotExist(err):
			// fresh start
		default:
			return fmt.Errorf("checking state file: %w", err)
		}
	}

	var tlsConfig *tls.Config
	switch {
	case *tlsCert != "" && *tlsKey != "":
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			return fmt.Errorf("loading TLS keypair: %w", err)
		}
		tlsConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	case *tlsSelf:
		cert, err := smtpserver.SelfSignedCert(*hostname)
		if err != nil {
			return err
		}
		tlsConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
		fmt.Fprintln(os.Stderr, "STARTTLS enabled with an ephemeral self-signed certificate")
	}

	// The trace ring only matters when /debug/traces can serve it.
	var tracer *trace.Tracer
	if *adminAddr != "" && *traceRing > 0 {
		tracer = trace.New(*traceRing)
	}

	// With -wal, recovery (checkpoint + log replay with torn-tail
	// truncation) and all further persistence run through the WAL.
	var wal *greylist.WAL
	if *walPath != "" {
		sync, err := greylist.ParseSyncPolicy(*walSync)
		if err != nil {
			return err
		}
		var info greylist.RecoverInfo
		wal, info, err = greylist.OpenWAL(greylist.WALConfig{
			Path:           *walPath,
			CheckpointPath: *state,
			Sync:           sync,
			SyncEvery:      *walSyncIntv,
			CompactBytes:   *walCompact,
			Tracer:         tracer,
		}, g)
		if err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		fmt.Fprintf(os.Stderr,
			"wal: recovered from %s (checkpoint=%v, %d records replayed, %d torn bytes dropped, generation %d): %d pending, %d passed\n",
			*walPath, info.CheckpointLoaded, info.ReplayedRecords, info.TornBytes, info.Generation,
			g.PendingCount(), g.PassedCount())
	}

	deferReply := func(v greylist.Verdict) *smtpproto.Reply {
		if v.Decision == greylist.Pass {
			return nil
		}
		r := smtpproto.NewReply(451, "4.7.1",
			fmt.Sprintf("Greylisted, please retry in %d seconds", int(v.WaitRemaining.Seconds())))
		return &r
	}
	srv := smtpserver.New(smtpserver.Config{
		Hostname:      *hostname,
		Clock:         simtime.Real{},
		TLS:           tlsConfig,
		StampReceived: true,
		ReadTimeout:   5 * time.Minute, // RFC 5321 §4.5.3.2
		MaxRcptBatch:  *rcptBatch,
		Tracer:        tracer,
		Hooks: smtpserver.Hooks{
			OnRcptTraced: func(tr *trace.Trace, clientIP, sender, rcpt string) *smtpproto.Reply {
				return deferReply(g.CheckTraced(greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}, tr))
			},
			// Pipelined RCPT bursts take one trip through the engine's
			// locks instead of one per recipient.
			OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
				ts := make([]greylist.Triplet, len(rcpts))
				for i, rcpt := range rcpts {
					ts[i] = greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: rcpt}
				}
				replies := make([]*smtpproto.Reply, len(rcpts))
				for i, v := range g.CheckBatch(ts, nil) {
					replies[i] = deferReply(v)
				}
				return replies
			},
			OnMessage: func(env *smtpserver.Envelope) *smtpproto.Reply {
				fmt.Fprintf(os.Stderr, "accepted: client=%s from=<%s> rcpts=%d bytes=%d\n",
					env.ClientIP, env.Sender, len(env.Recipients), len(env.Data))
				return nil
			},
			OnSessionEnd: func(tr *smtpserver.SessionTrace) {
				if !*fingerprint {
					return
				}
				v := dialect.Analyze(tr)
				fmt.Fprintf(os.Stderr, "fingerprint: client=%s %s suspicious=%v\n",
					tr.ClientIP, v, v.Suspicious())
			},
		},
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "greylistd listening on %s (threshold %v, subnet keying %v)\n",
		l.Addr(), *threshold, *subnet)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	var policySrv *policyd.Server
	if *policyAddr != "" {
		policySrv = policyd.New(g)
		policySrv.PrependHeader = true
		policySrv.SetTracer(tracer)
		pl, err := net.Listen("tcp", *policyAddr)
		if err != nil {
			return err
		}
		go func() {
			if err := policySrv.Serve(pl); err != nil {
				fmt.Fprintln(os.Stderr, "policy server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "postfix policy service on %s (check_policy_service inet:%s)\n",
			pl.Addr(), pl.Addr())
	}

	var admin *metrics.AdminServer
	var obsv *obs.Observatory
	if *adminAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterProcess(reg)
		g.Register(reg)
		srv.Register(reg)
		for _, s := range stages {
			if r, ok := s.(interface{ Register(*metrics.Registry) }); ok {
				r.Register(reg)
			}
		}
		if wal != nil {
			wal.Register(reg)
		}
		if policySrv != nil {
			policySrv.Register(reg)
		}
		var extra []metrics.Endpoint
		if tracer != nil {
			// /debug/traces serves the ring; the trailer appends the
			// latency exemplars that link histogram buckets to trace IDs.
			extra = append(extra, metrics.Endpoint{
				Path:    "/debug/traces",
				Handler: tracer.Handler(func(w io.Writer) { reg.WriteExemplars(w) }),
			})
		}

		// The live observatory: the engine feeds verdict sketches and
		// top-K sets on the hot path, cumulative counters are polled at
		// window rotation, and /observatory serves the windowed rollup
		// that greyctl renders.
		obsv = obs.New(obs.Config{Window: *obsWindow, Windows: *obsWindows})
		g.SetObserver(obsv.Greylist())
		obsv.WatchGreylist(g.Stats)
		if g.Chain() != nil {
			obsv.WatchChain(g.Chain)
		}
		if wal != nil {
			obsv.WatchWAL(wal)
		}
		obsv.Cumulative("smtp.sessions.delivered", func() uint64 {
			d, _, _ := srv.OutcomeCounts()
			return d
		})
		obsv.Cumulative("smtp.sessions.deferred", func() uint64 {
			_, d, _ := srv.OutcomeCounts()
			return d
		})
		obsv.Cumulative("smtp.sessions.none", func() uint64 {
			_, _, n := srv.OutcomeCounts()
			return n
		})
		obsv.Register(reg)
		extra = append(extra, obsv.Endpoint())

		// /healthz readiness: the trivial always-ok probe is replaced
		// with real subsystem checks a load balancer can drain on.
		health := metrics.NewHealth()
		if wal != nil {
			health.Add("wal", wal.Healthy)
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
		extra = append(extra, health.Endpoint())
		obsv.Start()
		admin, err = metrics.ServeAdmin(*adminAddr, reg, extra...)
		if err != nil {
			return fmt.Errorf("admin listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s/metrics (pprof at /debug/pprof/)\n",
			admin.Addr())
		if tracer != nil {
			fmt.Fprintf(os.Stderr, "session traces on http://%s/debug/traces (ring of %d)\n",
				admin.Addr(), *traceRing)
		}
	}

	gcStop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(*gcEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if n := g.GC(); n > 0 {
					fmt.Fprintf(os.Stderr, "gc: dropped %d expired records\n", n)
				}
			case <-gcStop:
				return
			}
		}
	}()

	// shutdownState persists whatever the daemon holds: with a WAL, one
	// final checkpoint compaction (Close); without, a snapshot save.
	// Shared by the clean-signal path and the listener-failure path —
	// previously the latter returned without saving anything.
	shutdownState := func() error {
		if wal != nil {
			if err := wal.Close(); err != nil {
				return fmt.Errorf("wal close: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wal: final checkpoint written to %s\n", *state)
			return nil
		}
		if *state != "" {
			if err := g.SaveFile(*state); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "saved state to %s\n", *state)
		}
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		close(gcStop)
		if obsv != nil {
			obsv.Stop()
		}
		if serr := shutdownState(); serr != nil {
			fmt.Fprintln(os.Stderr, "greylistd: saving state after listener failure:", serr)
		}
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "received %v, shutting down\n", s)
	}
	close(gcStop)
	srv.Close()
	if obsv != nil {
		obsv.Stop()
	}
	if policySrv != nil {
		policySrv.Close()
	}
	if admin != nil {
		// Drain in-flight scrapes (a /debug/traces dump mid-shutdown
		// should finish) instead of snapping the listener shut.
		if err := admin.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "admin shutdown:", err)
		}
	}

	if err := shutdownState(); err != nil {
		return err
	}
	st := g.Stats()
	fmt.Fprintf(os.Stderr, "stats: %d checks, %d deferred-new, %d passed-retry, %d passed-known\n",
		st.Checks, st.DeferredNew, st.PassedRetry, st.PassedKnown)
	return nil
}
