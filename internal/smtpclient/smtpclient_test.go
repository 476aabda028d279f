package smtpclient

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/dnsserver"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/smtpserver"
)

// world is a miniature Internet: one domain foo.net with a primary and a
// secondary MX, DNS, and an optional greylisting-style RCPT hook.
type world struct {
	net      *netsim.Network
	resolver *dnsresolver.Resolver
	inbox    []*smtpserver.Envelope
	mu       sync.Mutex
}

// buildWorld starts SMTP servers on the given MX IPs. rcptHook may be nil.
func buildWorld(t *testing.T, mxIPs []string, rcptHook func(ip, sender, rcpt string) *smtpproto.Reply) *world {
	t.Helper()
	w := &world{net: netsim.New()}

	zone := dnsserver.NewZone("foo.net")
	prefs := []uint16{0, 15, 30}
	names := []string{"smtp.foo.net", "smtp1.foo.net", "smtp2.foo.net"}
	for i, ip := range mxIPs {
		zone.MustAdd(dnsmsg.RR{Name: "foo.net", Type: dnsmsg.TypeMX, TTL: 300,
			Data: dnsmsg.MX{Preference: prefs[i], Host: names[i]}})
		zone.MustAdd(dnsmsg.RR{Name: names[i], Type: dnsmsg.TypeA, TTL: 300,
			Data: dnsmsg.MustIPv4(ip)})
	}
	dns := dnsserver.New()
	dns.AddZone(zone)
	w.resolver = dnsresolver.New(dnsresolver.Direct(dns), simtime.NewSim(simtime.Epoch))
	return w
}

// startMX binds an SMTP server to ip:25 recording deliveries in the inbox.
func (w *world) startMX(t *testing.T, ip string, rcptHook func(ip, sender, rcpt string) *smtpproto.Reply) *smtpserver.Server {
	t.Helper()
	l, err := w.net.Listen(ip + ":25")
	if err != nil {
		t.Fatal(err)
	}
	srv := smtpserver.New(smtpserver.Config{
		Hostname: "mx." + ip,
		Hooks: smtpserver.Hooks{
			OnRcpt: rcptHook,
			OnMessage: func(e *smtpserver.Envelope) *smtpproto.Reply {
				w.mu.Lock()
				defer w.mu.Unlock()
				w.inbox = append(w.inbox, e)
				return nil
			},
		},
	})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func (w *world) inboxSize() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.inbox)
}

func testMessage() Message {
	return Message{
		HeloName: "sender.example",
		From:     "alice@sender.example",
		To:       []string{"bob@foo.net"},
		Data:     []byte("Subject: test\r\n\r\nhello\r\n"),
	}
}

func TestClientFullTransaction(t *testing.T) {
	w := buildWorld(t, []string{"10.0.0.1"}, nil)
	w.startMX(t, "10.0.0.1", nil)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}

	c, err := Dial(dialer, "10.0.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("sender.example"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Extensions["PIPELINING"]; !ok {
		t.Errorf("extensions = %v, missing PIPELINING", c.Extensions)
	}
	if err := c.Mail("alice@sender.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt("bob@foo.net"); err != nil {
		t.Fatal(err)
	}
	if err := c.Data([]byte("Subject: x\r\n\r\nbody\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	if w.inboxSize() != 1 {
		t.Fatalf("inbox = %d", w.inboxSize())
	}
}

func TestClientResetAndClose(t *testing.T) {
	w := buildWorld(t, []string{"10.0.0.1"}, nil)
	w.startMX(t, "10.0.0.1", nil)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}
	c, err := Dial(dialer, "10.0.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("x.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("a@x.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorTemporaryClassification(t *testing.T) {
	deferReply := smtpproto.NewReply(451, "4.7.1", "Greylisted")
	rejectReply := smtpproto.NewReply(550, "5.1.1", "No such user")
	if !(&Error{Cmd: "RCPT", Reply: deferReply}).Temporary() {
		t.Error("451 not temporary")
	}
	if (&Error{Cmd: "RCPT", Reply: rejectReply}).Temporary() {
		t.Error("550 temporary")
	}
	e := &Error{Cmd: "RCPT", Reply: rejectReply}
	if !strings.Contains(e.Error(), "550") {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestDeliverMXPrimary(t *testing.T) {
	w := buildWorld(t, []string{"10.0.0.1", "10.0.0.2"}, nil)
	w.startMX(t, "10.0.0.1", nil)
	w.startMX(t, "10.0.0.2", nil)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}

	r := DeliverMX(w.resolver, dialer, "foo.net", testMessage())
	if r.Outcome != Delivered {
		t.Fatalf("receipt = %+v", r)
	}
	if r.Host != "smtp.foo.net" || r.HostsTried != 1 {
		t.Fatalf("receipt = %+v, want primary on first try", r)
	}
}

func TestDeliverMXWalksToSecondaryOnNolisting(t *testing.T) {
	// Nolisting layout: the primary's A record exists but port 25 is
	// closed. A compliant sender must fall through to the secondary.
	w := buildWorld(t, []string{"10.0.0.1", "10.0.0.2"}, nil)
	// No listener on 10.0.0.1 — that's the nolisted primary.
	w.startMX(t, "10.0.0.2", nil)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}

	r := DeliverMX(w.resolver, dialer, "foo.net", testMessage())
	if r.Outcome != Delivered {
		t.Fatalf("receipt = %+v", r)
	}
	if r.Host != "smtp1.foo.net" || r.HostsTried != 2 {
		t.Fatalf("receipt = %+v, want secondary after trying primary", r)
	}
	if w.inboxSize() != 1 {
		t.Fatalf("inbox = %d", w.inboxSize())
	}
}

func TestDeliverMXTransientOnGreylisting(t *testing.T) {
	greylist := func(ip, sender, rcpt string) *smtpproto.Reply {
		r := smtpproto.NewReply(451, "4.7.1", "Greylisted")
		return &r
	}
	w := buildWorld(t, []string{"10.0.0.1"}, nil)
	w.startMX(t, "10.0.0.1", greylist)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}

	r := DeliverMX(w.resolver, dialer, "foo.net", testMessage())
	if r.Outcome != TransientFailure {
		t.Fatalf("receipt = %+v, want transient", r)
	}
	var smtpErr *Error
	if !errors.As(r.LastError, &smtpErr) || !smtpErr.Temporary() {
		t.Fatalf("LastError = %v", r.LastError)
	}
	if w.inboxSize() != 0 {
		t.Fatal("greylisted message delivered")
	}
}

func TestDeliverMXPermanentStopsWalk(t *testing.T) {
	reject := func(ip, sender, rcpt string) *smtpproto.Reply {
		r := smtpproto.NewReply(550, "5.1.1", "No such user")
		return &r
	}
	w := buildWorld(t, []string{"10.0.0.1", "10.0.0.2"}, nil)
	w.startMX(t, "10.0.0.1", reject)
	secondary := w.startMX(t, "10.0.0.2", nil)

	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}
	r := DeliverMX(w.resolver, dialer, "foo.net", testMessage())
	if r.Outcome != PermanentFailure {
		t.Fatalf("receipt = %+v, want permanent", r)
	}
	if secondary.Stats().Connections != 0 {
		t.Fatal("permanent failure should not fall through to secondary")
	}
}

func TestDeliverMXAllDown(t *testing.T) {
	w := buildWorld(t, []string{"10.0.0.1", "10.0.0.2"}, nil)
	// Nothing listening anywhere.
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}
	r := DeliverMX(w.resolver, dialer, "foo.net", testMessage())
	if r.Outcome != Unreachable {
		t.Fatalf("receipt = %+v, want unreachable", r)
	}
	if r.HostsTried != 2 {
		t.Fatalf("HostsTried = %d, want 2", r.HostsTried)
	}
}

func TestDeliverMXUnknownDomain(t *testing.T) {
	w := buildWorld(t, []string{"10.0.0.1"}, nil)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}
	r := DeliverMX(w.resolver, dialer, "nonexistent.example", testMessage())
	if r.Outcome != Unreachable {
		t.Fatalf("receipt = %+v", r)
	}
}

func TestDeliverMXPartialRcptStillDelivers(t *testing.T) {
	oneGood := func(ip, sender, rcpt string) *smtpproto.Reply {
		if rcpt == "bad@foo.net" {
			r := smtpproto.NewReply(550, "5.1.1", "No such user")
			return &r
		}
		return nil
	}
	w := buildWorld(t, []string{"10.0.0.1"}, nil)
	w.startMX(t, "10.0.0.1", oneGood)
	dialer := &SimDialer{Net: w.net, LocalIP: "192.0.2.10"}
	msg := testMessage()
	msg.To = []string{"bad@foo.net", "bob@foo.net"}
	r := DeliverMX(w.resolver, dialer, "foo.net", msg)
	if r.Outcome != Delivered {
		t.Fatalf("receipt = %+v", r)
	}
}

func TestHelloFallsBackToHelo(t *testing.T) {
	// A raw server that refuses EHLO but accepts HELO.
	n := netsim.New()
	l, err := n.Listen("10.9.9.9:25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		conn.Write([]byte("220 old.server ready\r\n"))
		for {
			raw, err := smtpproto.ReadCommandLineAppend(br, nil)
			if err != nil {
				return
			}
			line := string(raw)
			switch {
			case strings.HasPrefix(line, "EHLO"):
				conn.Write([]byte("500 5.5.2 EHLO not understood\r\n"))
			case strings.HasPrefix(line, "HELO"):
				conn.Write([]byte("250 old.server\r\n"))
			case strings.HasPrefix(line, "QUIT"):
				conn.Write([]byte("221 bye\r\n"))
				return
			default:
				conn.Write([]byte("250 OK\r\n"))
			}
		}
	}()

	dialer := &SimDialer{Net: n, LocalIP: "192.0.2.10"}
	c, err := Dial(dialer, "10.9.9.9:25")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("new.client"); err != nil {
		t.Fatalf("Hello with fallback: %v", err)
	}
	if len(c.Extensions) != 0 {
		t.Fatalf("extensions = %v, want none after HELO fallback", c.Extensions)
	}
	c.Quit()
}

func TestDialRefusedSurfaces(t *testing.T) {
	n := netsim.New()
	dialer := &SimDialer{Net: n, LocalIP: "192.0.2.10"}
	if _, err := Dial(dialer, "10.0.0.1:25"); !errors.Is(err, netsim.ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectingBannerIsError(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("10.9.9.9:25")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("554 5.7.1 go away\r\n"))
		conn.Close()
	}()
	dialer := &SimDialer{Net: n, LocalIP: "192.0.2.10"}
	_, err = Dial(dialer, "10.9.9.9:25")
	var smtpErr *Error
	if !errors.As(err, &smtpErr) || smtpErr.Reply.Code != 554 {
		t.Fatalf("err = %v", err)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Delivered: "delivered", TransientFailure: "transient-failure",
		PermanentFailure: "permanent-failure", Unreachable: "unreachable",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestNetDialerRealTCP(t *testing.T) {
	// NetDialer against a real TCP server socket.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("220 real.tcp.test ready\r\n"))
		br := bufio.NewReader(conn)
		for {
			raw, err := smtpproto.ReadCommandLineAppend(br, nil)
			if err != nil {
				return
			}
			line := string(raw)
			switch {
			case strings.HasPrefix(line, "HELO"):
				conn.Write([]byte("250 hi\r\n"))
			case strings.HasPrefix(line, "QUIT"):
				conn.Write([]byte("221 bye\r\n"))
				return
			default:
				conn.Write([]byte("250 OK\r\n"))
			}
		}
	}()

	c, err := Dial(NetDialer{}, l.Addr().String())
	if err != nil {
		t.Fatalf("Dial over real TCP: %v", err)
	}
	if err := c.Helo("client.example"); err != nil {
		t.Fatalf("Helo: %v", err)
	}
	if err := c.Quit(); err != nil {
		t.Fatalf("Quit: %v", err)
	}
	if _, err := Dial(NetDialer{}, "127.0.0.1:1"); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}
