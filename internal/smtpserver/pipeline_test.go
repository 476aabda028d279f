package smtpserver

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/smtpproto"
)

// pipelineSession builds a bare session over a canned input stream, with
// the stream pre-buffered so drainPipelinedRcpts sees it the way a live
// connection would after the first RCPT read.
func pipelineSession(cfg Config, input string) (*session, *bytes.Buffer) {
	srv := New(cfg)
	out := &bytes.Buffer{}
	br := bufio.NewReader(strings.NewReader(input))
	br.Peek(1) // fill the buffer
	return &session{
		srv:       srv,
		br:        br,
		bw:        bufio.NewWriter(out),
		clientIP:  "192.0.2.7",
		state:     stateMail,
		sender:    "a@b.example",
		keepVerbs: true,
	}, out
}

func TestPipelinedRcptBatchDrain(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	cfg := Config{Hooks: Hooks{
		OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			mu.Lock()
			defer mu.Unlock()
			batches = append(batches, append([]string(nil), rcpts...))
			replies := make([]*smtpproto.Reply, len(rcpts))
			for i, r := range rcpts {
				if strings.HasPrefix(r, "defer") {
					rep := smtpproto.NewReply(451, "4.7.1", "Greylisted")
					replies[i] = &rep
				}
			}
			return replies
		},
	}}
	sess, out := pipelineSession(cfg,
		"RCPT TO:<defer2@x.example>\r\nRCPT TO:<ok3@x.example>\r\nDATA\r\n")

	if !sess.handleRcptPipeline("TO:<ok1@x.example>") {
		t.Fatal("session closed")
	}
	// The pipelined DATA line is still buffered, so the RFC 2920 rule
	// holds the batch replies back for the next answer to carry; force
	// them out to inspect the wire.
	sess.bw.Flush()
	if len(batches) != 1 {
		t.Fatalf("batches = %v", batches)
	}
	want := []string{"ok1@x.example", "defer2@x.example", "ok3@x.example"}
	if strings.Join(batches[0], " ") != strings.Join(want, " ") {
		t.Fatalf("batch = %v, want %v", batches[0], want)
	}
	// One reply per RCPT, in order; only the accepted ones recorded.
	br := bufio.NewReader(out)
	wantCodes := []int{250, 451, 250}
	for i, w := range wantCodes {
		r, err := readReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if r.Code != w {
			t.Fatalf("reply %d code = %d, want %d", i, r.Code, w)
		}
	}
	if got := strings.Join(sess.recipients, " "); got != "ok1@x.example ok3@x.example" {
		t.Fatalf("recipients = %q", got)
	}
	if sess.state != stateRcpt {
		t.Fatalf("state = %v", sess.state)
	}
	// The deferral was counted; the DATA line was left for the main loop.
	if st := sess.srv.Stats(); st.RecipientsDeferred != 1 {
		t.Fatalf("deferred = %d", st.RecipientsDeferred)
	}
	if line, _ := smtpproto.ReadCommandLineAppend(sess.br, nil); string(line) != "DATA" {
		t.Fatalf("next line = %q, want DATA", line)
	}
	if got := strings.Join(sess.trace.Verbs, " "); got != "RCPT RCPT" {
		t.Fatalf("drained trace verbs = %q", got)
	}
}

// TestPipelinedRcptFallsBackOnBadSyntax: a parse failure anywhere in the
// drained run must replay the commands serially, preserving per-command
// error replies. The serial replay still consults the policy engine for
// the valid recipients — as length-1 batches, since no OnRcpt is set.
func TestPipelinedRcptFallsBackOnBadSyntax(t *testing.T) {
	var sizes []int
	cfg := Config{Hooks: Hooks{
		OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			sizes = append(sizes, len(rcpts))
			return nil
		},
	}}
	sess, out := pipelineSession(cfg, "RCPT TO:not-bracketed\r\n")
	if !sess.handleRcptPipeline("TO:<ok@x.example>") {
		t.Fatal("session closed")
	}
	// Exactly one length-1 call for the valid recipient; the malformed
	// one fails parsing before any policy hook runs.
	if len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batch hook calls = %v, want one length-1 call", sizes)
	}
	br := bufio.NewReader(out)
	wantCodes := []int{250, 501}
	for i, w := range wantCodes {
		r, err := readReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if r.Code != w {
			t.Fatalf("reply %d code = %d, want %d", i, r.Code, w)
		}
	}
}

// TestLoneRcptUsesBatchHook: with only OnRcptBatch configured, a single
// unpipelined RCPT still goes through the policy engine.
func TestLoneRcptUsesBatchHook(t *testing.T) {
	called := 0
	cfg := Config{Hooks: Hooks{
		OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			called++
			rep := smtpproto.NewReply(451, "4.7.1", "Greylisted")
			return []*smtpproto.Reply{&rep}
		},
	}}
	sess, out := pipelineSession(cfg, "")
	if !sess.handleRcptPipeline("TO:<u@x.example>") {
		t.Fatal("session closed")
	}
	if called != 1 {
		t.Fatalf("batch hook calls = %d", called)
	}
	r, err := readReply(bufio.NewReader(out))
	if err != nil || r.Code != 451 {
		t.Fatalf("reply = %+v, %v", r, err)
	}
}

// TestPipelinedRcptOverWire runs a full pipelined transaction through a
// live server: EHLO handshake, then MAIL + all RCPTs + DATA written in
// one chunk (RFC 2920 client behaviour), asserting the replies arrive
// in order whatever batching the server managed.
func TestPipelinedRcptOverWire(t *testing.T) {
	var mu sync.Mutex
	total := 0
	env := startServer(t, Config{Hooks: Hooks{
		OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			mu.Lock()
			defer mu.Unlock()
			total += len(rcpts)
			return nil
		},
	}})
	conn, err := env.net.Dial("192.0.2.8:40000", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := readReply(br); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("EHLO client.example\r\n")); err != nil {
		t.Fatal(err)
	}
	if r, err := readReply(br); err != nil || r.Code != 250 {
		t.Fatalf("EHLO = %+v, %v", r, err)
	}
	burst := "MAIL FROM:<a@b.example>\r\n" +
		"RCPT TO:<u1@x.example>\r\n" +
		"RCPT TO:<u2@x.example>\r\n" +
		"RCPT TO:<u3@x.example>\r\n" +
		"QUIT\r\n"
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	wantCodes := []int{250, 250, 250, 250, 221}
	for i, w := range wantCodes {
		r, err := readReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if r.Code != w {
			t.Fatalf("reply %d code = %d, want %d", i, r.Code, w)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if total != 3 {
		t.Fatalf("batch hook saw %d recipients, want 3", total)
	}
}
