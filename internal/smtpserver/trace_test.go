package smtpserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/greylist"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/trace"
)

// captureConn is a scriptConn that keeps what the server writes.
type captureConn struct {
	scriptConn
	out bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// runScript serves one connection replaying lines and returns the
// server's wire output.
func runScript(srv *Server, lines ...string) []byte {
	conn := &captureConn{}
	conn.Reset(wireScript(lines...))
	srv.serveConn(conn)
	return conn.out.Bytes()
}

var greylisted = smtpproto.NewReply(451, "4.7.1", "Greylisted, please retry")

// TestSessionTraceBound: a client that keeps one traced connection busy
// with 100k MAIL/RCPT/RSET commands cannot grow its session trace past
// trace.MaxSessionEvents. The events past the cap are counted as
// dropped, and the outcome is still the last event.
func TestSessionTraceBound(t *testing.T) {
	const txns = 33334 // 100002 MAIL/RCPT/RSET commands
	var live *trace.Trace
	calls, maxLive := 0, 0
	srv := New(Config{
		Hostname: "bound.example",
		Tracer:   trace.New(4),
		Hooks: Hooks{OnRcptTraced: func(tr *trace.Trace, _, _, _ string) *smtpproto.Reply {
			live = tr
			calls++
			if calls%1000 == 0 {
				maxLive = max(maxLive, len(tr.Events()))
			}
			if calls == 1 {
				return &greylisted // a 4xx reply: the sampler keeps this trace
			}
			return nil
		}},
	})
	lines := []string{"EHLO client.example"}
	for i := 0; i < txns; i++ {
		lines = append(lines, "MAIL FROM:<a@b.example>", "RCPT TO:<u@foo.net>", "RSET")
	}
	lines = append(lines, "QUIT")
	runScript(srv, lines...)

	if live == nil || calls != txns {
		t.Fatalf("hook calls = %d, want %d", calls, txns)
	}
	if maxLive > trace.MaxSessionEvents {
		t.Fatalf("live trace held %d events, cap %d", maxLive, trace.MaxSessionEvents)
	}
	evs := live.Events()
	if len(evs) != trace.MaxSessionEvents {
		t.Fatalf("finished trace holds %d events, want %d", len(evs), trace.MaxSessionEvents)
	}
	if last := evs[len(evs)-1]; last.Kind != trace.KindOutcome || last.Name != "deferred" {
		t.Fatalf("last event = %+v, want the deferred outcome", last)
	}
	// session + connect + EHLO + 3 per transaction + QUIT were offered;
	// all but the cap's MaxSessionEvents-1 were dropped.
	offered := 1 + 1 + 1 + 3*txns + 1
	if got, want := live.Dropped(), offered-(trace.MaxSessionEvents-1); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
}

// TestTracedPipelinedBatch: a traced session's pipelined 16-RCPT burst
// makes one batch hook call; its wire bytes match both the untraced
// batch path and the serial path; the trace holds one verb event per
// RCPT.
func TestTracedPipelinedBatch(t *testing.T) {
	verdict := func(rcpt string) *smtpproto.Reply {
		var n int
		fmt.Sscanf(rcpt, "u%d@", &n)
		if n%2 == 1 {
			return &greylisted
		}
		return nil
	}
	batch := func(rcpts []string) []*smtpproto.Reply {
		out := make([]*smtpproto.Reply, len(rcpts))
		for i, r := range rcpts {
			out[i] = verdict(r)
		}
		return out
	}
	lines := []string{"EHLO client.example", "MAIL FROM:<a@b.example>"}
	for i := 0; i < 16; i++ {
		lines = append(lines, fmt.Sprintf("RCPT TO:<u%d@foo.net>", i))
	}
	lines = append(lines, "RSET", "QUIT")

	var sessTrace *trace.Trace
	batchCalls := 0
	traced := New(Config{
		Hostname: "batch.example",
		Tracer:   trace.New(4),
		Hooks: Hooks{
			OnRcptTraced: func(*trace.Trace, string, string, string) *smtpproto.Reply {
				t.Error("traced pipelined RCPT took the serial hook")
				return nil
			},
			OnRcptBatchTraced: func(tr *trace.Trace, _, _ string, rcpts []string) []*smtpproto.Reply {
				batchCalls++
				sessTrace = tr
				return batch(rcpts)
			},
		},
	})
	untraced := New(Config{Hostname: "batch.example", Hooks: Hooks{
		OnRcptBatch: func(_, _ string, rcpts []string) []*smtpproto.Reply { return batch(rcpts) },
	}})
	serial := New(Config{Hostname: "batch.example", Tracer: trace.New(4), Hooks: Hooks{
		OnRcptTraced: func(_ *trace.Trace, _, _, rcpt string) *smtpproto.Reply { return verdict(rcpt) },
	}})

	got := runScript(traced, lines...)
	if batchCalls != 1 || sessTrace == nil {
		t.Fatalf("batch hook calls = %d, want 1 with the session trace", batchCalls)
	}
	if want := runScript(untraced, lines...); !bytes.Equal(got, want) {
		t.Fatalf("traced batch wire differs from untraced batch:\n%s\nvs\n%s", got, want)
	}
	if want := runScript(serial, lines...); !bytes.Equal(got, want) {
		t.Fatalf("traced batch wire differs from serial:\n%s\nvs\n%s", got, want)
	}
	var codes []int
	for _, e := range sessTrace.Events() {
		if e.Kind == trace.KindVerb && e.Name == smtpproto.VerbRCPT {
			codes = append(codes, e.Code)
		}
	}
	if len(codes) != 16 {
		t.Fatalf("trace holds %d RCPT verb events, want 16", len(codes))
	}
	for i, c := range codes {
		if want := map[bool]int{true: 451, false: 250}[i%2 == 1]; c != want {
			t.Fatalf("RCPT %d traced code %d, want %d", i, c, want)
		}
	}
}

// greylistServer wires a greylisting engine into a traced, instrumented
// server the way greylistd does.
func greylistServer(tracer *trace.Tracer, reg *metrics.Registry) (*Server, *greylist.Greylister, *simtime.Sim) {
	clock := simtime.NewSim(simtime.Epoch)
	g := greylist.New(greylist.DefaultPolicy(), clock)
	reply := func(v greylist.Verdict) *smtpproto.Reply {
		if v.Decision == greylist.Pass {
			return nil
		}
		return &greylisted
	}
	srv := New(Config{
		Hostname: "grey.example",
		Tracer:   tracer,
		Hooks: Hooks{
			OnRcptTraced: func(tr *trace.Trace, ip, sender, rcpt string) *smtpproto.Reply {
				return reply(g.CheckTraced(greylist.Triplet{ClientIP: ip, Sender: sender, Recipient: rcpt}, tr))
			},
			OnRcptBatchTraced: func(tr *trace.Trace, ip, sender string, rcpts []string) []*smtpproto.Reply {
				ts := make([]greylist.Triplet, len(rcpts))
				for i, r := range rcpts {
					ts[i] = greylist.Triplet{ClientIP: ip, Sender: sender, Recipient: r}
				}
				out := make([]*smtpproto.Reply, len(rcpts))
				for i, v := range g.CheckBatchTraced(ts, nil, tr) {
					out[i] = reply(v)
				}
				return out
			},
		},
	})
	if reg != nil {
		srv.Register(reg)
		g.Register(reg)
	}
	return srv, g, clock
}

// TestExemplarsResolveToKeptTraces: after a run of sessions the sampler
// mostly did not keep, every exemplar trace ID that /debug/traces
// prints resolves through ?id=.
func TestExemplarsResolveToKeptTraces(t *testing.T) {
	tracer := trace.New(1024)
	reg := metrics.NewRegistry()
	srv, _, clock := greylistServer(tracer, reg)
	lone := []string{"EHLO c.example", "MAIL FROM:<a@b.example>", "RCPT TO:<u@foo.net>", "QUIT"}
	burst := []string{"EHLO c.example", "MAIL FROM:<a@b.example>", "RCPT TO:<v@foo.net>", "RCPT TO:<w@foo.net>", "QUIT"}
	runScript(srv, lone...) // deferred: kept
	runScript(srv, burst...)
	clock.Advance(301 * time.Second)
	for i := 0; i < 300; i++ { // passed: mostly not kept
		runScript(srv, lone...)
		runScript(srv, burst...)
	}
	if tracer.NotKept() == 0 {
		t.Fatal("every session was kept; the test needs not-kept ones")
	}

	h := tracer.Handler(func(w io.Writer) { reg.WriteExemplars(w) })
	get := func(q string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+q, nil))
		return rec.Code, rec.Body.String()
	}
	_, listing := get("")
	ids := 0
	sc := bufio.NewScanner(strings.NewReader(listing))
	for sc.Scan() {
		_, id, ok := strings.Cut(sc.Text(), "trace_id=")
		if !ok {
			continue
		}
		ids++
		if code, body := get("?id=" + id); code != 200 {
			t.Errorf("exemplar %s does not resolve: %d %s", id, code, body)
		}
	}
	if ids == 0 {
		t.Fatalf("no exemplars printed:\n%s", listing)
	}
}

// TestTracedSessionsRecycleUnderReaders runs traced sessions that
// finish and recycle their pooled event buffers while readers walk
// /debug/traces (text, JSONL, ?id=) and read live traces directly.
// Run under -race.
func TestTracedSessionsRecycleUnderReaders(t *testing.T) {
	tracer := trace.New(64)
	srv, _, _ := greylistServer(tracer, metrics.NewRegistry())
	h := tracer.Handler()

	var mu sync.Mutex
	var recent []*trace.Trace
	srv.cfg.Hooks.OnSessionEnd = func(*SessionTrace) {}
	inner := srv.cfg.Hooks.OnRcptBatchTraced
	srv.cfg.Hooks.OnRcptBatchTraced = func(tr *trace.Trace, ip, sender string, rcpts []string) []*smtpproto.Reply {
		mu.Lock()
		if len(recent) < 256 {
			recent = append(recent, tr)
		} else {
			recent[len(rcpts)%len(recent)] = tr
		}
		mu.Unlock()
		return inner(tr, ip, sender, rcpts)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				lines := []string{"EHLO c.example", fmt.Sprintf("MAIL FROM:<s%d@b.example>", i%3)}
				for r := 0; r < 1+i%6; r++ {
					lines = append(lines, fmt.Sprintf("RCPT TO:<u%d-%d@foo.net>", w, r))
				}
				runScript(srv, append(lines, "RSET", "QUIT")...)
			}
		}(w)
	}
	stop := make(chan struct{})
	readers := sync.WaitGroup{}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range []string{"", "?format=jsonl"} {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/traces"+q, nil))
			}
			for _, tc := range tracer.Snapshot() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+trace.FormatID(tc.ID()), nil))
				if rec.Code != 200 && rec.Code != 404 { // 404: evicted since the snapshot
					t.Errorf("?id= answered %d", rec.Code)
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			snap := append([]*trace.Trace(nil), recent...)
			mu.Unlock()
			for _, tc := range snap {
				// Each session belongs to one worker, whose recipients
				// all start "(ip, sender, u<w>-": a buffer recycled under
				// a reader would mix workers.
				owner := ""
				for _, e := range tc.Events() {
					if e.Kind != trace.KindGreylist {
						continue
					}
					_, rest, _ := strings.Cut(e.Detail, "@b.example, ")
					w, _, _ := strings.Cut(rest, "-")
					if owner == "" {
						owner = w
					} else if w != owner {
						t.Errorf("trace %x mixes sessions: %q after %q", tc.ID(), w, owner)
					}
				}
				_ = tc.Record()
				_ = tc.Dropped()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if tracer.Finished() != 4*150 {
		t.Fatalf("finished = %d, want %d", tracer.Finished(), 4*150)
	}
}
