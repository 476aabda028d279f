package daemon

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
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
// has exited.
func TestFailedStartLeavesNothing(t *testing.T) {
	for _, busy := range []string{"-policy-listen", "-admin-addr"} {
		t.Run(busy, func(t *testing.T) {
			dir := t.TempDir()
			smtpAddr := freePort(t)
			args := []string{"greylistd", "-listen", smtpAddr, "-threshold", "1s",
				"-state", filepath.Join(dir, "state"), "-wal", filepath.Join(dir, "wal"),
				"-policy-listen", freePort(t), "-admin-addr", freePort(t)}
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
// reads; a restart on the same files recovers the passed triplets.
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
