package smtpserver

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
)

// testEnv runs a server on a simulated network and returns a dial helper.
type testEnv struct {
	net    *netsim.Network
	server *Server
	addr   string
}

func startServer(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	n := netsim.New()
	l, err := n.Listen("10.0.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hostname == "" {
		cfg.Hostname = "smtp.foo.net"
	}
	srv := New(cfg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	return &testEnv{net: n, server: srv, addr: "10.0.0.1:25"}
}

// script runs a raw SMTP conversation: sends each input line, reads one
// complete reply after each, and returns the reply codes.
func (e *testEnv) script(t *testing.T, clientIP string, lines []string) []smtpproto.Reply {
	t.Helper()
	conn, err := e.net.Dial(clientIP+":40000", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	banner, err := readReply(br)
	if err != nil {
		t.Fatalf("banner: %v", err)
	}
	replies := []smtpproto.Reply{banner}
	for _, line := range lines {
		if _, err := conn.Write([]byte(line + "\r\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		r, err := readReply(br)
		if err != nil {
			t.Fatalf("reply to %q: %v", line, err)
		}
		replies = append(replies, r)
	}
	return replies
}

// readReply reads one reply, multi-line or not, from a test client's
// reader.
func readReply(br *bufio.Reader) (smtpproto.Reply, error) {
	r, _, err := smtpproto.ParseReplyBuf(br, nil)
	return r, err
}

func codes(replies []smtpproto.Reply) []int {
	out := make([]int, len(replies))
	for i, r := range replies {
		out[i] = r.Code
	}
	return out
}

func TestBannerAndHelo(t *testing.T) {
	env := startServer(t, Config{})
	replies := env.script(t, "192.0.2.1", []string{"HELO client.example", "QUIT"})
	want := []int{220, 250, 221}
	for i, w := range want {
		if replies[i].Code != w {
			t.Fatalf("codes = %v, want %v", codes(replies), want)
		}
	}
	if !strings.Contains(replies[0].Lines[0], "smtp.foo.net") {
		t.Fatalf("banner = %q", replies[0].Lines[0])
	}
}

func TestEhloExtensions(t *testing.T) {
	env := startServer(t, Config{MaxMessageSize: 5000})
	replies := env.script(t, "192.0.2.1", []string{"EHLO client.example"})
	ehlo := replies[1]
	if ehlo.Code != 250 {
		t.Fatalf("EHLO code = %d", ehlo.Code)
	}
	joined := strings.Join(ehlo.Lines, "\n")
	for _, ext := range []string{"PIPELINING", "SIZE 5000", "8BITMIME", "ENHANCEDSTATUSCODES"} {
		if !strings.Contains(joined, ext) {
			t.Errorf("EHLO missing %q in %q", ext, joined)
		}
	}
}

func TestFullTransactionDeliversEnvelope(t *testing.T) {
	var mu sync.Mutex
	var got *Envelope
	clock := simtime.NewSim(simtime.Epoch)
	env := startServer(t, Config{
		Clock: clock,
		Hooks: Hooks{OnMessage: func(e *Envelope) *smtpproto.Reply {
			mu.Lock()
			defer mu.Unlock()
			got = e
			return nil
		}},
	})
	replies := env.script(t, "192.0.2.55", []string{
		"EHLO bot.example",
		"MAIL FROM:<sender@spam.example>",
		"RCPT TO:<victim@foo.net>",
		"RCPT TO:<victim2@foo.net>",
		"DATA",
		"Subject: hi\r\n\r\nbody line\r\n.",
		"QUIT",
	})
	want := []int{220, 250, 250, 250, 250, 354, 250, 221}
	for i, w := range want {
		if replies[i].Code != w {
			t.Fatalf("codes = %v, want %v", codes(replies), want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("OnMessage never called")
	}
	if got.ClientIP != "192.0.2.55" {
		t.Errorf("ClientIP = %q", got.ClientIP)
	}
	if got.Helo != "bot.example" || got.Sender != "sender@spam.example" {
		t.Errorf("envelope = %+v", got)
	}
	if len(got.Recipients) != 2 || got.Recipients[1] != "victim2@foo.net" {
		t.Errorf("recipients = %v", got.Recipients)
	}
	if string(got.Data) != "Subject: hi\r\n\r\nbody line\r\n" {
		t.Errorf("data = %q", got.Data)
	}
	if !got.ReceivedAt.Equal(simtime.Epoch) {
		t.Errorf("ReceivedAt = %v", got.ReceivedAt)
	}
	if env.server.Stats().MessagesAccepted != 1 {
		t.Errorf("stats = %+v", env.server.Stats())
	}
}

func TestCommandOrderEnforced(t *testing.T) {
	env := startServer(t, Config{})
	replies := env.script(t, "192.0.2.1", []string{
		"MAIL FROM:<a@b.example>",  // before HELO
		"RCPT TO:<x@foo.net>",      // before MAIL
		"DATA",                     // before MAIL
		"HELO c.example",           // now greet
		"RCPT TO:<x@foo.net>",      // before MAIL still
		"DATA",                     // before MAIL still
		"MAIL FROM:<a@b.example>",  // ok
		"MAIL FROM:<a2@b.example>", // nested MAIL
		"DATA",                     // RCPT missing
	})
	want := []int{220, 503, 503, 503, 250, 503, 503, 250, 503, 503}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	env := startServer(t, Config{})
	replies := env.script(t, "192.0.2.1", []string{
		"HELO",                    // missing arg
		"HELO c.example",          // fine
		"MAIL FROM:no-brackets",   // bad path
		"MAIL FROM:<a@b.example>", // fine
		"RCPT TO:<>",              // empty forward path
		"FROB x",                  // unknown verb
		"@#$%",                    // unparsable
	})
	want := []int{220, 501, 250, 501, 250, 501, 500, 500}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
}

func TestRsetClearsEnvelope(t *testing.T) {
	env := startServer(t, Config{})
	replies := env.script(t, "192.0.2.1", []string{
		"HELO c.example",
		"MAIL FROM:<a@b.example>",
		"RCPT TO:<x@foo.net>",
		"RSET",
		"DATA",                    // must fail: envelope cleared
		"MAIL FROM:<a@b.example>", // and MAIL is accepted again
	})
	want := []int{220, 250, 250, 250, 250, 503, 250}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
}

func TestNoopVrfyHelp(t *testing.T) {
	env := startServer(t, Config{})
	replies := env.script(t, "192.0.2.1", []string{"NOOP", "VRFY user@foo.net", "HELP"})
	want := []int{220, 250, 252, 214}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
}

func TestNullSenderAccepted(t *testing.T) {
	env := startServer(t, Config{})
	replies := env.script(t, "192.0.2.1", []string{
		"HELO c.example",
		"MAIL FROM:<>",
		"RCPT TO:<postmaster@foo.net>",
	})
	want := []int{220, 250, 250, 250}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
}

func TestRcptHookDefersLikeGreylisting(t *testing.T) {
	env := startServer(t, Config{
		Hooks: Hooks{OnRcpt: func(ip, sender, rcpt string) *smtpproto.Reply {
			r := smtpproto.NewReply(451, "4.7.1", "Greylisted, please retry later")
			return &r
		}},
	})
	replies := env.script(t, "192.0.2.1", []string{
		"HELO c.example",
		"MAIL FROM:<a@b.example>",
		"RCPT TO:<x@foo.net>",
		"DATA", // no accepted recipients
	})
	want := []int{220, 250, 250, 451, 503}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
	if replies[3].Enhanced != "4.7.1" {
		t.Fatalf("enhanced = %q, want 4.7.1", replies[3].Enhanced)
	}
	if env.server.Stats().RecipientsDeferred != 1 {
		t.Fatalf("stats = %+v", env.server.Stats())
	}
}

func TestConnectHookRejects(t *testing.T) {
	env := startServer(t, Config{
		Hooks: Hooks{OnConnect: func(ip string) *smtpproto.Reply {
			r := smtpproto.NewReply(554, "5.7.1", "You are on a blocklist")
			return &r
		}},
	})
	conn, err := env.net.Dial("192.0.2.66:40000", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	banner, err := readReply(br)
	if err != nil {
		t.Fatal(err)
	}
	if banner.Code != 554 {
		t.Fatalf("banner = %d, want 554", banner.Code)
	}
	// The server must close the connection after a rejecting banner.
	if _, err := conn.Write([]byte("HELO x\r\n")); err == nil {
		if _, err := readReply(br); err == nil {
			t.Fatal("server kept serving after rejecting banner")
		}
	}
}

func TestMaxRecipients(t *testing.T) {
	env := startServer(t, Config{MaxRecipients: 2})
	lines := []string{"HELO c.example", "MAIL FROM:<a@b.example>"}
	for i := 0; i < 3; i++ {
		lines = append(lines, fmt.Sprintf("RCPT TO:<u%d@foo.net>", i))
	}
	replies := env.script(t, "192.0.2.1", lines)
	want := []int{220, 250, 250, 250, 250, 452}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
}

func TestMessageSizeLimit(t *testing.T) {
	env := startServer(t, Config{MaxMessageSize: 64})
	big := strings.Repeat("0123456789\r\n", 20)
	replies := env.script(t, "192.0.2.1", []string{
		"HELO c.example",
		"MAIL FROM:<a@b.example>",
		"RCPT TO:<x@foo.net>",
		"DATA",
		big + ".",
		"MAIL FROM:<a@b.example>", // session survives
	})
	want := []int{220, 250, 250, 250, 354, 552, 250}
	got := codes(replies)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
	if env.server.Stats().MessagesRejected != 1 {
		t.Fatalf("stats = %+v", env.server.Stats())
	}
}

func TestSizeParamRejectedEarly(t *testing.T) {
	env := startServer(t, Config{MaxMessageSize: 1000})
	replies := env.script(t, "192.0.2.1", []string{
		"EHLO c.example",
		"MAIL FROM:<a@b.example> SIZE=999999",
	})
	if replies[2].Code != 552 {
		t.Fatalf("code = %d, want 552", replies[2].Code)
	}
}

func TestTooManyErrorsDisconnects(t *testing.T) {
	env := startServer(t, Config{MaxErrors: 3})
	conn, err := env.net.Dial("192.0.2.1:40000", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := readReply(br); err != nil {
		t.Fatal(err)
	}
	var last smtpproto.Reply
	for i := 0; i < 3; i++ {
		if _, err := conn.Write([]byte("BOGUS\r\n")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		last, err = readReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	if last.Code != 421 {
		t.Fatalf("final reply = %d, want 421", last.Code)
	}
	if _, err := readReply(br); err == nil {
		t.Fatal("connection still open after 421")
	}
}

func TestPipelinedCommands(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	env := startServer(t, Config{
		Hooks: Hooks{OnMessage: func(e *Envelope) *smtpproto.Reply {
			mu.Lock()
			defer mu.Unlock()
			delivered++
			return nil
		}},
	})
	conn, err := env.net.Dial("192.0.2.1:40000", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := readReply(br); err != nil {
		t.Fatal(err)
	}
	// Send the whole transaction in one burst (PIPELINING).
	burst := "EHLO c.example\r\nMAIL FROM:<a@b.example>\r\nRCPT TO:<x@foo.net>\r\nDATA\r\n"
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	for i, wantCode := range []int{250, 250, 250, 354} {
		r, err := readReply(br)
		if err != nil {
			t.Fatalf("pipelined reply %d: %v", i, err)
		}
		if r.Code != wantCode {
			t.Fatalf("pipelined reply %d = %d, want %d", i, r.Code, wantCode)
		}
	}
	if _, err := conn.Write([]byte("body\r\n.\r\nQUIT\r\n")); err != nil {
		t.Fatal(err)
	}
	r, err := readReply(br)
	if err != nil || r.Code != 250 {
		t.Fatalf("DATA end = %v, %v", r, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
}

func TestCloseDrainsConnections(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("10.0.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Hostname: "x"})
	done := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(done)
	}()
	conn, err := n.Dial("192.0.2.1:40000", "10.0.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := readReply(br); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	// The open connection was killed by Close.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection survived Close")
	}
	conn.Close()
}
