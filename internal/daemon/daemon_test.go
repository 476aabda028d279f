package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsbl"
	"repro/internal/dnsmsg"
	"repro/internal/dnsserver"
	"repro/internal/greylist"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/trace"
)

// syncBuffer is a log writer the daemon's goroutines may share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func start(t *testing.T, log io.Writer, args ...string) *Daemon {
	t.Helper()
	d, err := Start(append([]string{"greylistd"}, args...), log)
	if err != nil {
		t.Fatalf("Start(%q): %v", args, err)
	}
	return d
}

// freePort returns a loopback address nothing listens on.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// busyPort returns a loopback address held by the test until it ends.
func busyPort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// smtpConn is a raw SMTP client that writes whole pipelined bursts and
// reads replies one at a time.
type smtpConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialSMTP(t *testing.T, addr, localIP string) *smtpConn {
	t.Helper()
	dialer := net.Dialer{Timeout: 5 * time.Second}
	if localIP != "" {
		dialer.LocalAddr = &net.TCPAddr{IP: net.ParseIP(localIP)}
	}
	c, err := dialer.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	s := &smtpConn{t: t, c: c, br: bufio.NewReader(c)}
	s.expect(220)
	s.send("EHLO client.example")
	s.expect(250)
	return s
}

// send writes lines as one burst, so the server sees them pipelined.
func (s *smtpConn) send(lines ...string) {
	s.t.Helper()
	if _, err := io.WriteString(s.c, strings.Join(lines, "\r\n")+"\r\n"); err != nil {
		s.t.Fatal(err)
	}
}

// reply reads one (possibly multi-line) reply and returns its code.
func (s *smtpConn) reply() int {
	s.t.Helper()
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			s.t.Fatalf("reading reply: %v", err)
		}
		if len(line) < 4 {
			s.t.Fatalf("short reply line %q", line)
		}
		if line[3] != '-' {
			code, err := strconv.Atoi(line[:3])
			if err != nil {
				s.t.Fatalf("reply line %q: %v", line, err)
			}
			return code
		}
	}
}

func (s *smtpConn) expect(codes ...int) {
	s.t.Helper()
	for i, want := range codes {
		if got := s.reply(); got != want {
			s.t.Fatalf("reply %d: code %d, want %d", i, got, want)
		}
	}
}

func (s *smtpConn) quit() {
	s.t.Helper()
	s.send("QUIT")
	s.expect(221)
	s.c.Close()
}

func httpGet(t *testing.T, addr net.Addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// scrape reads /metrics into a series → value map.
func scrape(t *testing.T, addr net.Addr) map[string]float64 {
	t.Helper()
	code, body := httpGet(t, addr, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics answered %d", code)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// TestStartRejectsSettings: each setting that would crash the daemon
// or silently misconfigure it stops Start with an error naming the
// flag, before any file is opened or port bound. The SMTP port is held
// busy, so a check that ran after the bind would report the bind
// error instead; the state directory must stay empty.
func TestStartRejectsSettings(t *testing.T) {
	listen := busyPort(t)
	for _, tc := range []struct {
		name string
		args []string // "WAL" stands for a path in the subtest's state dir
		want []string // substrings of the error
	}{
		{"gc zero", []string{"-gc", "0"}, []string{"-gc"}},
		{"gc negative", []string{"-gc", "-1m"}, []string{"-gc"}},
		{"lone cert", []string{"-tls-cert", "/nonexistent.pem"}, []string{"-tls-cert", "-tls-key"}},
		{"lone key", []string{"-tls-key", "/nonexistent.pem"}, []string{"-tls-cert", "-tls-key"}},
		{"self-signed and keypair", []string{"-tls-self-signed", "-tls-cert", "c.pem", "-tls-key", "k.pem"}, []string{"-tls-self-signed"}},
		{"wal without state", []string{"-wal", "WAL"}, []string{"-wal", "-state"}},
		{"spf without dns", []string{"-spf"}, []string{"-spf", "-dns"}},
		{"dnswl without dns", []string{"-dnswl", "list.dnswl.example"}, []string{"-dnswl", "-dns"}},
		{"rdns without dns", []string{"-rdns"}, []string{"-rdns", "-dns"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-listen", listen}
			for _, a := range tc.args {
				args = append(args, strings.ReplaceAll(a, "WAL", filepath.Join(dir, "wal")))
			}
			d, err := Start(append([]string{"greylistd"}, args...), io.Discard)
			if err == nil {
				d.Close()
				t.Fatalf("Start(%q) succeeded", args)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %s", err, w)
				}
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("Start created %d files before refusing", len(ents))
			}
		})
	}
}

// TestFailedStartLeavesNothing: with the policy port, then the admin
// port, held busy, Start fails, and the SMTP port it had already bound
// refuses connections, the WAL is closed and every goroutine it started
// has exited. The rDNS stage is on, so the failed start also closes the
// resolver's transport, which has opened no socket before serving.
func TestFailedStartLeavesNothing(t *testing.T) {
	for _, busy := range []string{"-policy-listen", "-admin-addr"} {
		t.Run(busy, func(t *testing.T) {
			dir := t.TempDir()
			smtpAddr := freePort(t)
			args := []string{"greylistd", "-listen", smtpAddr, "-threshold", "1s",
				"-state", filepath.Join(dir, "state"), "-wal", filepath.Join(dir, "wal"),
				"-policy-listen", freePort(t), "-admin-addr", freePort(t), "-dns", startDNS(t), "-rdns"}
			args = append(args, busy, busyPort(t)) // the later flag wins
			base := runtime.NumGoroutine()
			d, err := Start(args, io.Discard)
			if err == nil {
				d.Close()
				t.Fatalf("Start succeeded with %s busy", busy)
			}
			if !strings.Contains(err.Error(), "address already in use") {
				t.Errorf("error %q is not the bind failure", err)
			}
			if c, err := net.DialTimeout("tcp", smtpAddr, time.Second); err == nil {
				c.Close()
				t.Errorf("SMTP port %s still accepts after the failed start", smtpAddr)
			}
			// The WAL was closed with a final checkpoint.
			if _, err := os.Stat(filepath.Join(dir, "state")); err != nil {
				t.Errorf("no checkpoint after the failed start: %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the failed start, %d before:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestFingerprintHookOnlyWithFlag: OnSessionEnd exists only under
// -fingerprint, where one session logs one fingerprint line.
func TestFingerprintHookOnlyWithFlag(t *testing.T) {
	g := greylist.New(greylist.DefaultPolicy(), simtime.Real{})
	if sessionHooks(g, io.Discard, false).OnSessionEnd != nil {
		t.Error("OnSessionEnd installed without -fingerprint")
	}
	if sessionHooks(g, io.Discard, true).OnSessionEnd == nil {
		t.Error("OnSessionEnd missing under -fingerprint")
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 0},
		{[]string{"-fingerprint"}, 1},
	} {
		var log syncBuffer
		d := start(t, &log, append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...)
		dialSMTP(t, d.SMTPAddr().String(), "").quit()
		if err := d.Close(); err != nil { // waits for the session to end
			t.Fatal(err)
		}
		if got := strings.Count(log.String(), "fingerprint: client=127.0.0.1 "); got != tc.want {
			t.Errorf("%q: %d fingerprint lines, want %d; log:\n%s", tc.args, got, tc.want, log.String())
		}
	}
}

// passedBurst returns an engine on a simulated clock and, for each
// client, 16 recipients; the recipients pass[c][i] marks are passed
// triplets for (client c, sender), the rest are unknown. The engine
// keeps no auto-whitelist, so a passed triplet stays a known triplet.
func passedBurst(t *testing.T, clients []string, sender string, pass func(c, i int) bool) (*greylist.Greylister, [][]string) {
	t.Helper()
	clock := simtime.NewSim(simtime.Epoch)
	p := greylist.DefaultPolicy()
	p.AutoWhitelistAfter = 0
	g := greylist.New(p, clock)
	rcpts := make([][]string, len(clients))
	var passed []greylist.Triplet
	for c, ip := range clients {
		for i := 0; i < 16; i++ {
			rcpts[c] = append(rcpts[c], "u"+strconv.Itoa(i)+"@dest.example")
			if pass(c, i) {
				passed = append(passed, greylist.Triplet{ClientIP: ip, Sender: sender, Recipient: rcpts[c][i]})
			}
		}
	}
	g.CheckBatch(passed, nil)
	clock.Advance(p.Threshold + time.Second)
	for i, v := range g.CheckBatch(passed, nil) {
		if v.Reason != greylist.ReasonRetryAccepted {
			t.Fatalf("setup: %v = %+v, want retry-accepted", passed[i], v)
		}
	}
	return g, rcpts
}

// TestBurstHookNoAllocs: a pipelined burst of 16 known-passed
// recipients goes through the RCPT hook without allocating; so does a
// deferred lone RCPT, and a deferred 16-RCPT burst allocates only its
// replies slice. The deferred triplets are pending ones retried early
// on a clock that does not move, so each wait is the threshold.
func TestBurstHookNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled bursts")
	}
	const ip, other, sender = "192.0.2.1", "192.0.2.9", "c1@corp1.example"
	g, rcpts := passedBurst(t, []string{ip, other}, sender, func(c, _ int) bool { return c == 0 })
	h := sessionHooks(g, io.Discard, false)
	for _, tc := range []struct {
		name   string
		ip     string
		rcpts  []string
		allocs float64
	}{
		{"known-passed 16-RCPT burst", ip, rcpts[0], 0},
		{"deferred lone RCPT", other, rcpts[1][:1], 0},
		{"deferred 16-RCPT burst", other, rcpts[1], 1},
	} {
		deferred := tc.ip == other
		h.OnRcptBatchTraced(nil, tc.ip, sender, tc.rcpts) // first sight of the pending triplets
		allocs := testing.AllocsPerRun(100, func() {
			replies := h.OnRcptBatchTraced(nil, tc.ip, sender, tc.rcpts)
			if got := replies != nil; got != deferred {
				t.Fatalf("%s replied %v", tc.name, replies)
			}
			for _, r := range replies {
				if r == nil || r.Code != 451 {
					t.Fatalf("%s replied %v", tc.name, r)
				}
			}
		})
		if allocs != tc.allocs {
			t.Errorf("%s allocates %.1f/op, want %v", tc.name, allocs, tc.allocs)
		}
	}
	if s := g.Stats(); s.PassedKnown < 100*16 {
		t.Errorf("PassedKnown = %d, want at least %d", s.PassedKnown, 100*16)
	}
}

// TestDeferralText: the cached deferral replies are byte for byte the
// 451 greylistd rendered with fmt.Sprintf per deferral, for waits of 0
// to 400 s and for the threshold, asked in an order that makes the
// cache both hit and miss.
func TestDeferralText(t *testing.T) {
	threshold := greylist.DefaultPolicy().Threshold
	var waits []time.Duration
	for s := 0; s <= 400; s++ {
		w := time.Duration(s)*time.Second + 300*time.Millisecond
		waits = append(waits, w, w, threshold)
	}
	var ds deferrals
	for _, w := range waits {
		d := ds.get(greylist.Verdict{Decision: greylist.Defer, WaitRemaining: w})
		want := smtpproto.NewReply(451, "4.7.1",
			fmt.Sprintf("Greylisted, please retry in %d seconds", int(w.Seconds())))
		if got := d.reply.String(); got != want.String() {
			t.Fatalf("wait %v: reply %q, want %q", w, got, want.String())
		}
		if d.one[0] != &d.reply {
			t.Fatalf("wait %v: lone-RCPT slice %v does not hold the reply", w, d.one)
		}
	}
}

// TestBurstHookConcurrent: bursts running at once through one hook each
// get their own verdicts. Client c's recipient i is passed when
// (c+i)%3 == 0 and deferred otherwise, so bursts sharing a slice would
// answer some recipient with another client's verdict.
func TestBurstHookConcurrent(t *testing.T) {
	const sender = "c1@corp1.example"
	clients := []string{"192.0.2.1", "192.0.2.2", "192.0.2.3", "192.0.2.4"}
	pass := func(c, i int) bool { return (c+i)%3 == 0 }
	g, rcpts := passedBurst(t, clients, sender, pass)
	h := sessionHooks(g, io.Discard, false)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				replies := h.OnRcptBatchTraced(nil, clients[c], sender, rcpts[c])
				if len(replies) != len(rcpts[c]) {
					t.Errorf("client %d: %d replies for %d recipients", c, len(replies), len(rcpts[c]))
					return
				}
				for i, r := range replies {
					if deferred := r != nil && r.Code == 451; deferred == pass(c, i) {
						t.Errorf("client %d, burst %d, recipient %d: reply %v, passed %v", c, n, i, r, pass(c, i))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// startDNS serves a PTR zone on loopback UDP: 127.0.0.2 is named like a
// mail server; every other address has no PTR.
func startDNS(t *testing.T) string {
	t.Helper()
	srv := dnsserver.New()
	t.Cleanup(func() { srv.Close() })
	ptr := dnsserver.NewZone("in-addr.arpa")
	rev, err := dnsbl.ReverseIPv4("127.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	ptr.MustAdd(dnsmsg.RR{Name: rev + ".in-addr.arpa", Type: dnsmsg.TypePTR, TTL: 3600,
		Data: dnsmsg.PTR{Target: "smtp.relay.example"}})
	srv.AddZone(ptr)
	addr, err := srv.ListenAndServeUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr.String()
}

// TestAssembly runs the whole daemon in-process: WAL, an rDNS bypass
// stage over a loopback DNS zone, the policy service and the admin
// listener. A pipelined burst is deferred and its retry passes; the
// admin surfaces answer and /metrics carries every series the benchmark
// reads; the resolver's lookups, one at a time, share one UDP socket,
// which Close closes; a restart on the same files recovers the passed
// triplets.
func TestAssembly(t *testing.T) {
	dir := t.TempDir()
	dnsAddr, policyAddr := startDNS(t), freePort(t)
	args := []string{"-listen", "127.0.0.1:0", "-threshold", "1s",
		"-state", filepath.Join(dir, "state"), "-wal", filepath.Join(dir, "wal"),
		"-admin-addr", "127.0.0.1:0", "-policy-listen", policyAddr,
		"-dns", dnsAddr, "-rdns"}
	var log syncBuffer
	d := start(t, &log, args...)

	rcpts := []string{"RCPT TO:<a@dest.example>", "RCPT TO:<b@dest.example>", "RCPT TO:<c@dest.example>"}
	burst := append([]string{"MAIL FROM:<s@client.example>"}, rcpts...)
	c := dialSMTP(t, d.SMTPAddr().String(), "")
	c.send(burst...)
	c.expect(250, 451, 451, 451)
	c.send("RSET")
	c.expect(250)
	time.Sleep(1100 * time.Millisecond) // past -threshold
	c.send(append(burst, "DATA")...)
	c.expect(250, 250, 250, 250, 354)
	c.send("Subject: retry", "", "passed", ".")
	c.expect(250)
	c.quit()

	// A client whose PTR names a mail server skips the dance.
	c = dialSMTP(t, d.SMTPAddr().String(), "127.0.0.2")
	c.send("MAIL FROM:<s@relay.example>", "RCPT TO:<a@dest.example>")
	c.expect(250, 250)
	c.quit()

	admin := d.AdminAddr()
	if code, body := httpGet(t, admin, "/healthz"); code != 200 {
		t.Errorf("/healthz answered %d:\n%s", code, body)
	}
	for _, path := range []string{"/debug/traces", "/observatory"} {
		if code, _ := httpGet(t, admin, path); code != 200 {
			t.Errorf("%s answered %d", path, code)
		}
	}
	// The WAL counts a record when its consumer frames it; a flush
	// drains the ring first, so the count below is exact.
	if err := d.wal.Flush(); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, admin)
	for series, want := range map[string]float64{
		`greylist_verdicts_total{reason="first-seen"}`:              3,
		`greylist_verdicts_total{reason="retry-accepted"}`:          3,
		`greylist_verdicts_total{reason="rdns-mailserver"}`:         1,
		`greylist_checks_total`:                                     7,
		`smtp_recipients_deferred_total`:                            3,
		`smtp_messages_accepted_total`:                              1,
		`greylist_pending_triplets`:                                 0,
		`greylist_passed_triplets`:                                  3,
		`greylist_bypass_stage_total{stage="rdns",action="bypass"}`: 1,
		`wal_records_total`:                                         6, // 3 first-seen inserts, 3 promotions
		`wal_replayed_records_total`:                                0,
		// One PTR lookup per client (127.0.0.1 has no PTR, and the rDNS
		// stage caches the answer for the retry); the resolver's cache
		// keeps no NXDOMAIN and is not asked twice.
		`resolver_queries_total`:               2,
		`resolver_cache_hits_total`:            0,
		`resolver_udp_sockets_opened_total`:    1,
		`resolver_udp_sockets_open`:            1,
		`resolver_udp_answers_discarded_total`: 0,
		`resolver_exchange_errors_total`:       0,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}

	pc, err := net.Dial("tcp", policyAddr)
	if err != nil {
		t.Fatal(err)
	}
	pc.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(pc, "request=smtpd_access_policy\nprotocol_state=RCPT\nclient_address=192.0.2.1\nsender=x@y.example\nrecipient=a@dest.example\n\n")
	if line, err := bufio.NewReader(pc).ReadString('\n'); err != nil || !strings.HasPrefix(line, "action=") {
		t.Errorf("policy reply %q, %v", line, err)
	}
	pc.Close()

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The policy request's PTR lookup went out on the same socket.
	if s := d.dns.Stats(); s.SocketsOpened != 1 || s.SocketsOpen != 0 {
		t.Errorf("resolver transport after Close: %+v, want 1 socket opened and none open", s)
	}
	if !strings.Contains(log.String(), "wal: final checkpoint written to ") {
		t.Errorf("no final checkpoint line; log:\n%s", log.String())
	}

	d = start(t, io.Discard, args...)
	defer d.Close()
	if got := scrape(t, d.AdminAddr())["greylist_passed_triplets"]; got != 3 {
		t.Errorf("recovered %v passed triplets, want 3", got)
	}
	c = dialSMTP(t, d.SMTPAddr().String(), "")
	c.send(burst...)
	c.expect(250, 250, 250, 250)
	c.quit()
}

// traceEvents reads the kept session traces from /debug/traces and
// returns, per client address, each event as "kind name detail code"
// (times and durations left out), once every session listed in want
// has finished.
func traceEvents(t *testing.T, admin net.Addr, want ...string) map[string][]string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := httpGet(t, admin, "/debug/traces?format=jsonl")
		got := make(map[string][]string)
		dec := json.NewDecoder(strings.NewReader(body))
		for {
			var rec trace.Record
			if err := dec.Decode(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("decoding /debug/traces: %v", err)
			}
			if len(rec.Events) == 0 || rec.Outcome == "" {
				continue
			}
			var evs []string
			for _, e := range rec.Events {
				evs = append(evs, fmt.Sprintf("%s %s %s %d", e.Kind, e.Name, e.Detail, e.Code))
			}
			got[rec.Events[0].Detail] = evs
		}
		done := true
		for _, client := range want {
			done = done && got[client] != nil
		}
		if done {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions %q not all on /debug/traces:\n%s", want, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoneRcptIsBatchOfOne: a RCPT the client does not pipeline is one
// engine call of one triplet, so N lone RCPTs raise
// greylist_batch_seconds_count and the le="1" bucket of
// greylist_batch_size by N. Their replies and the sessions' verb,
// bypass and greylist trace events are those greylistd gave when a lone
// RCPT had a hook of its own.
func TestLoneRcptIsBatchOfOne(t *testing.T) {
	d := start(t, io.Discard, "-listen", "127.0.0.1:0", "-threshold", "1h",
		"-admin-addr", "127.0.0.1:0", "-dns", startDNS(t), "-rdns")
	defer d.Close()
	admin := d.AdminAddr()
	before := scrape(t, admin)

	c := dialSMTP(t, d.SMTPAddr().String(), "")
	c.send("MAIL FROM:<s@client.example>")
	c.expect(250)
	for _, rcpt := range []string{"a", "b", "c"} {
		c.send("RCPT TO:<" + rcpt + "@dest.example>")
		c.expect(451)
	}
	c.quit()
	// 127.0.0.2's PTR names a mail server: the rDNS stage bypasses.
	// The unknown command's 500 makes the sampler keep the session.
	c = dialSMTP(t, d.SMTPAddr().String(), "127.0.0.2")
	c.send("MAIL FROM:<s@relay.example>")
	c.expect(250)
	c.send("RCPT TO:<a@dest.example>")
	c.expect(250)
	c.send("BOGUS")
	c.expect(500)
	c.quit()

	after := scrape(t, admin)
	for _, series := range []string{"greylist_batch_seconds_count", `greylist_batch_size_bucket{le="1"}`, "greylist_checks_total"} {
		if got := after[series] - before[series]; got != 4 {
			t.Errorf("%s rose by %v over 4 lone RCPTs, want 4", series, got)
		}
	}

	got := traceEvents(t, admin, "127.0.0.1", "127.0.0.2")
	for client, want := range map[string][]string{
		"127.0.0.1": {
			"attempt session 127.0.0.1 0",
			"verb connect greylistd.local ESMTP ready 220",
			"verb EHLO greylistd.local Hello client.example 250",
			"verb MAIL Sender OK 250",
			"greylist defer (127.0.0.1, s@client.example, a@dest.example) first-seen 1",
			"verb RCPT Greylisted, please retry in 3600 seconds 451",
			"greylist defer (127.0.0.1, s@client.example, b@dest.example) first-seen 1",
			"verb RCPT Greylisted, please retry in 3600 seconds 451",
			"greylist defer (127.0.0.1, s@client.example, c@dest.example) first-seen 1",
			"verb RCPT Greylisted, please retry in 3600 seconds 451",
			"verb QUIT greylistd.local closing connection 221",
			"outcome deferred  0",
		},
		"127.0.0.2": {
			"attempt session 127.0.0.2 0",
			"verb connect greylistd.local ESMTP ready 220",
			"verb EHLO greylistd.local Hello client.example 250",
			"verb MAIL Sender OK 250",
			"bypass rdns bypass 0",
			"greylist pass (127.0.0.2, s@relay.example, a@dest.example) rdns-mailserver 0",
			"verb RCPT Recipient OK 250",
			"verb BOGUS Command not recognized 500",
			"verb QUIT greylistd.local closing connection 221",
			"outcome no-delivery  0",
		},
	} {
		if !slices.Equal(got[client], want) {
			t.Errorf("%s trace:\n%s\nwant:\n%s", client, strings.Join(got[client], "\n"), strings.Join(want, "\n"))
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/metrics_families.txt from greylistd as shipped")

// TestMetricsCatalogue: greylistd as shipped (WAL and checkpoint,
// policy service, admin listener, the SPF, DNSWL and rDNS stages)
// exports exactly the /metrics families in testdata/metrics_families.txt,
// one "name type" line each. A dashboard breaks when a family goes, so
// adding or removing one is a deliberate edit: run the test with
// -update and commit the file.
func TestMetricsCatalogue(t *testing.T) {
	dir := t.TempDir()
	d := start(t, io.Discard, "-listen", "127.0.0.1:0",
		"-state", filepath.Join(dir, "state"), "-wal", filepath.Join(dir, "wal"),
		"-policy-listen", freePort(t), "-admin-addr", "127.0.0.1:0",
		"-dns", startDNS(t), "-spf", "-dnswl", "wl.example", "-rdns")
	defer d.Close()
	code, body := httpGet(t, d.AdminAddr(), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics answered %d", code)
	}
	var got strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got.WriteString(fam + "\n")
		}
	}
	golden := filepath.Join("testdata", "metrics_families.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics families differ from %s (rerun with -update if on purpose):\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
