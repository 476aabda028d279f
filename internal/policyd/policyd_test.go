package policyd

import (
	"bufio"

	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/greylist"
	"repro/internal/simtime"
)

func TestParseRequest(t *testing.T) {
	raw := "request=smtpd_access_policy\n" +
		"protocol_state=RCPT\n" +
		"client_address=203.0.113.9\n" +
		"sender=bot@spam.example\n" +
		"recipient=user@foo.net\n" +
		"\n"
	req, err := ParseRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if req.ClientAddress() != "203.0.113.9" || req.Sender() != "bot@spam.example" ||
		req.Recipient() != "user@foo.net" || req.ProtocolState() != "RCPT" {
		t.Fatalf("request = %v", req)
	}
}

func TestParseRequestEOFAndGarbage(t *testing.T) {
	if _, err := ParseRequest(bufio.NewReader(strings.NewReader(""))); err != io.EOF {
		t.Fatalf("empty stream err = %v, want EOF", err)
	}
	if _, err := ParseRequest(bufio.NewReader(strings.NewReader("no equals sign\n\n"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Stray blank lines between requests are tolerated.
	req, err := ParseRequest(bufio.NewReader(strings.NewReader("\n\nclient_address=1.2.3.4\n\n")))
	if err != nil || req.ClientAddress() != "1.2.3.4" {
		t.Fatalf("req = %v, %v", req, err)
	}
}

func newPolicyServer(threshold time.Duration) (*Server, *simtime.Sim) {
	clock := simtime.NewSim(simtime.Epoch)
	g := greylist.New(greylist.Policy{Threshold: threshold, RetryWindow: 48 * time.Hour}, clock)
	return New(g), clock
}

func rcptRequest(ip, sender, rcpt string) Request {
	return Request{
		"request":        "smtpd_access_policy",
		"protocol_state": "RCPT",
		"client_address": ip,
		"sender":         sender,
		"recipient":      rcpt,
	}
}

func TestDecideGreylistFlow(t *testing.T) {
	s, clock := newPolicyServer(300 * time.Second)
	req := rcptRequest("203.0.113.9", "a@b.example", "u@foo.net")

	if resp := s.Decide(req); !strings.HasPrefix(resp.Action, "DEFER_IF_PERMIT") {
		t.Fatalf("first = %q", resp.Action)
	}
	clock.Advance(100 * time.Second)
	resp := s.Decide(req)
	if !strings.Contains(resp.Action, "200 seconds") {
		t.Fatalf("early retry = %q, want remaining wait of 200s", resp.Action)
	}
	clock.Advance(201 * time.Second)
	if resp := s.Decide(req); resp.Action != "DUNNO" {
		t.Fatalf("late retry = %q, want DUNNO", resp.Action)
	}
}

func TestDecidePrependHeader(t *testing.T) {
	s, clock := newPolicyServer(300 * time.Second)
	s.PrependHeader = true
	req := rcptRequest("203.0.113.9", "a@b.example", "u@foo.net")
	s.Decide(req)
	clock.Advance(400 * time.Second)
	resp := s.Decide(req)
	if !strings.HasPrefix(resp.Action, "PREPEND X-Greylist: delayed 400 seconds") {
		t.Fatalf("action = %q", resp.Action)
	}
	// Subsequent known-triplet passes are plain DUNNO.
	if resp := s.Decide(req); resp.Action != "DUNNO" {
		t.Fatalf("known = %q", resp.Action)
	}
}

func TestDecideNonRcptStatesPass(t *testing.T) {
	s, _ := newPolicyServer(300 * time.Second)
	req := rcptRequest("203.0.113.9", "a@b.example", "u@foo.net")
	req["protocol_state"] = "DATA"
	if resp := s.Decide(req); resp.Action != "DUNNO" {
		t.Fatalf("DATA state = %q", resp.Action)
	}
	// And incomplete requests pass rather than block mail.
	if resp := s.Decide(Request{"protocol_state": "RCPT"}); resp.Action != "DUNNO" {
		t.Fatalf("incomplete = %q", resp.Action)
	}
}

// TestPolicyProtocolOverTCP exercises the wire protocol end to end the
// way Postfix does: one connection, many requests.
func TestPolicyProtocolOverTCP(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := greylist.New(greylist.Policy{Threshold: 300 * time.Second, RetryWindow: 48 * time.Hour}, clock)
	srv := New(g)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)

	send := func() string {
		t.Helper()
		req := "request=smtpd_access_policy\nprotocol_state=RCPT\n" +
			"client_address=198.51.100.77\nsender=mta@benign.example\nrecipient=user@foo.net\n\n"
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if blank, err := br.ReadString('\n'); err != nil || strings.TrimSpace(blank) != "" {
			t.Fatalf("missing terminating blank line: %q, %v", blank, err)
		}
		return strings.TrimSpace(line)
	}

	if got := send(); !strings.HasPrefix(got, "action=DEFER_IF_PERMIT") {
		t.Fatalf("first = %q", got)
	}
	clock.Advance(301 * time.Second)
	if got := send(); got != "action=DUNNO" {
		t.Fatalf("retry = %q", got)
	}
	if srv.Requests() != 2 {
		t.Fatalf("requests = %d", srv.Requests())
	}
}

func TestPolicyServerCloseIdempotent(t *testing.T) {
	s, _ := newPolicyServer(time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := s.Serve(l); err == nil {
		t.Fatal("Serve succeeded after Close")
	}
}

func TestResponseWrite(t *testing.T) {
	var sb strings.Builder
	if err := (Response{Action: "DUNNO"}).Write(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "action=DUNNO\n\n" {
		t.Fatalf("wire = %q", sb.String())
	}
}
