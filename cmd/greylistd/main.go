// Command greylistd is a standalone greylisting SMTP server — a usable
// Postgrey-style daemon built on the reproduction's library. It answers
// real SMTP on a TCP port, defers unknown (client IP, sender, recipient)
// triplets with 451 4.7.1, accepts retries past the threshold, supports
// client/recipient whitelists and persists its state across restarts.
//
// main hands the command line to internal/daemon, which parses it and
// wires every layer (see DESIGN.md, "Daemon assembly"), then waits for
// a signal and closes the daemon. internal/daemon's tests run the same
// assembly in-process.
//
// Usage:
//
//	greylistd [-listen :2525] [-hostname mx.example.org]
//	          [-threshold 300s] [-retry-window 48h] [-max-age 840h]
//	          [-auto-whitelist 5] [-whiteexp 0] [-subnet] [-state greylist.db]
//	          [-wal greylist.wal] [-wal-sync interval] [-wal-compact-every 16777216]
//	          [-gc 10m] [-fingerprint]
//	          [-policy-listen 127.0.0.1:10023]
//	          [-tls-cert cert.pem -tls-key key.pem | -tls-self-signed]
//	          [-admin-addr 127.0.0.1:9925] [-trace-ring 1024]
//	          [-obs-window 10s] [-obs-windows 30]
//	          [-dns 9.9.9.9:53] [-spf] [-dnswl list.dnswl.org] [-rdns]
//	          [-whitelist-ip CIDR]... [-unprotect postmaster@dom]...
//
// Settings that would crash the daemon or silently misconfigure it are
// refused at start, before any file is opened or port bound: -gc must
// be positive, -tls-cert and -tls-key come together and exclude
// -tls-self-signed. Every port is bound before any serves, so a busy
// port stops the start with nothing listening. The exit status is 0
// after -h or a clean shutdown, 2 for a bad command line and 1 when the
// daemon cannot start or its listener fails.
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
// nonzero — a ring of -trace-ring sampled session traces on
// /debug/traces (filter with ?outcome=, ?defense=, ?min_attempts=; see
// DESIGN.md, "Tracing"). Each trace follows one SMTP connection verb by
// verb through its greylist verdicts to the final outcome, capped at
// 256 events. The ring keeps every session that sent a 4xx or 5xx
// reply, every session slower than the running p99, and 1 in 64 of the
// rest; the header counts the sessions it did not keep.
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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/daemon"
)

func main() {
	d, err := daemon.Start(os.Args, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, daemon.ErrUsage):
		os.Exit(2) // the flag set already printed the reason and the usage
	case err != nil:
		fmt.Fprintln(os.Stderr, "greylistd:", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-d.Err():
		if cerr := d.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "greylistd: saving state after listener failure:", cerr)
		}
		fmt.Fprintln(os.Stderr, "greylistd:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "received %v, shutting down\n", s)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "greylistd:", err)
		os.Exit(1)
	}
	st := d.Stats()
	fmt.Fprintf(os.Stderr, "stats: %d checks, %d deferred-new, %d passed-retry, %d passed-known\n",
		st.Checks, st.DeferredNew, st.PassedRetry, st.PassedKnown)
}
