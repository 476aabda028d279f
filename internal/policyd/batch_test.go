package policyd

import (
	"bufio"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/greylist"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func TestBufferedRequest(t *testing.T) {
	cases := []struct {
		raw  string
		want bool
	}{
		{"", false},
		{"\n", false},                       // blank alone is not a request
		{"\n\n\n", false},                   // ParseRequest skips these and would block
		{"client_address=1.2.3.4\n", false}, // no terminating blank yet
		{"client_address=1.2.3.4\n\n", true},
		{"a=1\r\nb=2\r\n\r\n", true},           // CRLF form
		{"\nclient_address=1.2.3.4\n\n", true}, // stray blank, then a full request
	}
	for _, c := range cases {
		br := bufio.NewReader(strings.NewReader(c.raw))
		br.Peek(1) // fill the buffer so Buffered() sees the payload
		if got := bufferedRequest(br); got != c.want {
			t.Errorf("bufferedRequest(%q) = %v, want %v", c.raw, got, c.want)
		}
	}
}

// TestDecideBatchMatchesDecide runs a mixed batch — greylistable
// requests, a non-RCPT state, an incomplete request — through DecideBatch
// and asserts positional equivalence with serial Decide on an identical
// engine (fresh engines, same clock, so state evolution matches).
func TestDecideBatchMatchesDecide(t *testing.T) {
	mkServer := func() *Server {
		clock := simtime.NewSim(simtime.Epoch)
		g := greylist.New(greylist.Policy{Threshold: 300 * time.Second, RetryWindow: 48 * time.Hour}, clock)
		s := New(g)
		s.PrependHeader = true
		return s
	}
	reqs := []Request{
		rcptRequest("203.0.113.9", "a@b.example", "u@foo.net"),
		{"protocol_state": "DATA", "client_address": "203.0.113.9", "recipient": "u@foo.net"},
		rcptRequest("203.0.113.10", "b@b.example", "v@foo.net"),
		{"protocol_state": "RCPT"},                             // incomplete
		rcptRequest("203.0.113.9", "a@b.example", "u@foo.net"), // repeat: still deferred
	}

	serial := mkServer()
	want := make([]Response, len(reqs))
	for i, req := range reqs {
		want[i] = serial.Decide(req)
	}

	batch := mkServer()
	got := batch.DecideBatch(reqs, nil)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] batch = %q, serial = %q", i, got[i].Action, want[i].Action)
		}
	}

	// The out slice is reused on the next call.
	got2 := batch.DecideBatch(reqs[:2], got)
	if &got2[0] != &got[0] {
		t.Error("DecideBatch did not reuse the out slice")
	}
}

// TestDecideBatchIgnoresTracer: a tracer changes no verdict. With the
// auto-whitelist after two deliveries and a client that has made one, a
// pipelined [fresh, known] pair is answered as if each request came
// alone: the fresh triplet is deferred, and the known one's delivery
// credit whitelists the client only after it.
func TestDecideBatchIgnoresTracer(t *testing.T) {
	run := func(tracer *trace.Tracer) []string {
		clock := simtime.NewSim(simtime.Epoch)
		p := greylist.DefaultPolicy()
		p.AutoWhitelistAfter = 2
		s := New(greylist.New(p, clock))
		s.SetTracer(tracer)
		known := rcptRequest("203.0.113.9", "a@b.example", "u@foo.net")
		s.DecideBatch([]Request{known}, nil)
		clock.Advance(p.Threshold + time.Second)
		if r := s.DecideBatch([]Request{known}, nil); r[0].Action != "DUNNO" {
			t.Fatalf("retry = %q, want DUNNO", r[0].Action)
		}
		fresh := rcptRequest("203.0.113.9", "a@b.example", "v@foo.net")
		var actions []string
		for _, r := range s.DecideBatch([]Request{fresh, known}, nil) {
			actions = append(actions, r.Action)
		}
		return actions
	}
	untraced, traced := run(nil), run(trace.New(16))
	if !slices.Equal(untraced, traced) {
		t.Fatalf("untraced %q, traced %q", untraced, traced)
	}
	if !strings.HasPrefix(untraced[0], "DEFER_IF_PERMIT ") || untraced[1] != "DUNNO" {
		t.Fatalf("actions %q, want a deferral, then DUNNO", untraced)
	}
}

// TestPolicyPipelinedRequests writes several complete requests in one
// chunk, the way a busy Postfix smtpd does, and expects one in-order
// response per request.
func TestPolicyPipelinedRequests(t *testing.T) {
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

	req := func(rcpt string) string {
		return "request=smtpd_access_policy\nprotocol_state=RCPT\n" +
			"client_address=198.51.100.80\nsender=mta@benign.example\nrecipient=" + rcpt + "\n\n"
	}
	if _, err := conn.Write([]byte(req("u1@foo.net") + req("u2@foo.net") + req("u1@foo.net"))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !strings.HasPrefix(line, "action=DEFER_IF_PERMIT") {
			t.Fatalf("response %d = %q", i, line)
		}
		if blank, err := br.ReadString('\n'); err != nil || strings.TrimSpace(blank) != "" {
			t.Fatalf("response %d missing blank: %q, %v", i, blank, err)
		}
	}
	if srv.Requests() != 3 {
		t.Fatalf("requests = %d", srv.Requests())
	}
}
