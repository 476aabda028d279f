// Package policyd implements the Postfix SMTP access policy delegation
// protocol — the interface through which the real Postgrey plugs into
// the real Postfix (and the deployment shape of the server the paper
// instrumented: "Postfix (and Postgrey for the greylisting tests)").
//
// Protocol (postfix.org/SMTPD_POLICY_README.html): the MTA sends one
// request as "name=value" lines terminated by an empty line; the policy
// server answers "action=<decision>" plus an empty line. Connections are
// reused for many requests. The attributes this server reads are
// protocol_state, client_address, sender and recipient; the decisions it
// emits are:
//
//	DUNNO                     — no objection (pass to the next rule)
//	DEFER_IF_PERMIT <reason>  — the greylisting deferral
//	PREPEND <header>          — on first-pass deliveries, a tracing
//	                            header like Postgrey's X-Greylist
//
// With this package, cmd/greylistd can front an actual Postfix:
//
//	smtpd_recipient_restrictions = check_policy_service inet:127.0.0.1:10023
package policyd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/greylist"
	"repro/internal/trace"
)

// Request is one policy request's attributes (names lower-cased).
type Request map[string]string

// Attribute accessors for the fields greylisting needs.
func (r Request) ClientAddress() string { return r["client_address"] }

// Sender returns the envelope sender attribute.
func (r Request) Sender() string { return r["sender"] }

// Recipient returns the envelope recipient attribute.
func (r Request) Recipient() string { return r["recipient"] }

// ProtocolState returns the SMTP state (RCPT, DATA, ...).
func (r Request) ProtocolState() string { return strings.ToUpper(r["protocol_state"]) }

// Bounds on one request. The idle deadline is armed once per request,
// so without them a peer that keeps sending could grow the server's
// heap without limit; a request past either bound is refused, and the
// server drops its connection as it does for garbage.
const (
	// maxRequestLine bounds one attribute line, newline included.
	// Postfix's own values (addresses, host names, certificate names)
	// sit well under it.
	maxRequestLine = 4096
	// maxRequestAttrs bounds the attribute lines in one request.
	// Postfix's SMTPD_POLICY_README lists a few dozen attributes.
	maxRequestAttrs = 128
)

// Refusals of a request past a bound.
var (
	errLineTooLong  = errors.New("policyd: attribute line too long")
	errTooManyAttrs = errors.New("policyd: too many attributes")
)

// ParseRequest reads one request (up to the blank line). io.EOF on a
// clean end-of-stream before any attribute. Attribute names are
// trimmed and ASCII-lower-cased, values trimmed. A line longer than
// maxRequestLine, or a request with more than maxRequestAttrs
// attribute lines, is refused without reading the rest of it.
func ParseRequest(br *bufio.Reader) (Request, error) {
	req := make(Request)
	for attrs := 0; ; {
		line, err := readAttrLine(br)
		if err != nil {
			if errors.Is(err, io.EOF) && len(req) == 0 && line == "" {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("policyd: read: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			if len(req) == 0 {
				continue // tolerate stray blank lines between requests
			}
			return req, nil
		}
		if attrs++; attrs > maxRequestAttrs {
			return nil, errTooManyAttrs
		}
		name, value, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("policyd: malformed attribute line %q", line)
		}
		req[asciiLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
}

// readAttrLine is br.ReadString('\n') refusing a line longer than
// maxRequestLine.
func readAttrLine(br *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(long)+len(frag) > maxRequestLine {
			return "", errLineTooLong
		}
		if err == bufio.ErrBufferFull {
			long = append(long, frag...)
			continue
		}
		if long == nil {
			return string(frag), err
		}
		return string(append(long, frag...)), err
	}
}

// asciiLower lower-cases ASCII letters only. Postfix's attribute names
// are ASCII; a Unicode case mapping can lengthen a name past the line
// bound it was read under.
func asciiLower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if c := b[j]; c >= 'A' && c <= 'Z' {
					b[j] = c + 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// Response is the action the policy server returns.
type Response struct {
	Action string
}

// Write emits the response in wire form.
func (r Response) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w, "action=%s\n\n", r.Action)
	return err
}

// DefaultIdleTimeout bounds how long a policy connection may sit idle
// between requests (and how long one response write may stall) before
// the server drops it. Postfix reconnects transparently when a policy
// connection goes away, and its own client-side limits
// (smtpd_policy_service_timeout and friends) sit well under this, so
// five minutes only ever reaps peers that are truly gone.
const DefaultIdleTimeout = 5 * time.Minute

// Server answers policy requests with greylisting decisions.
type Server struct {
	checker *greylist.Greylister
	// PrependHeader, when true, answers first-accepted retries with a
	// PREPEND action adding a Postgrey-style tracing header instead of
	// plain DUNNO.
	PrependHeader bool
	// IdleTimeout overrides DefaultIdleTimeout; negative disables
	// deadlines entirely. Set before Serve.
	IdleTimeout time.Duration

	inst   atomic.Pointer[instruments]
	tracer atomic.Pointer[trace.Tracer]

	mu        sync.Mutex
	wg        sync.WaitGroup
	closed    bool
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	requests  uint64
}

// New returns a policy server over the given greylisting engine.
func New(checker *greylist.Greylister) *Server {
	return &Server{checker: checker, conns: make(map[net.Conn]struct{})}
}

// Requests reports how many policy requests have been served.
func (s *Server) Requests() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// Serve accepts policy connections on l until it is closed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("policyd: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("policyd: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops listeners and drains connection goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if inst := s.inst.Load(); inst != nil {
		inst.connections.Inc()
	}
	timeout := s.IdleTimeout
	if timeout == 0 {
		timeout = DefaultIdleTimeout
	}
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var (
		reqs  []Request
		resps []Response
	)
	for {
		// Arm the idle deadline before blocking for the next request: a
		// peer that wedges mid-request (or vanishes without FIN) must not
		// pin this goroutine and its connection slot forever.
		if timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(timeout))
		}
		req, err := ParseRequest(br)
		if err != nil {
			if isTimeout(err) {
				if inst := s.inst.Load(); inst != nil {
					inst.timeouts.Inc()
				}
			}
			return // EOF, timeout or garbage: drop the connection, like Postgrey
		}
		// An MTA under load writes requests back-to-back without waiting
		// for each answer; drain every complete request already buffered
		// and decide them as one batch, amortizing the engine's locks.
		reqs = append(reqs[:0], req)
		for len(reqs) < maxRequestBatch && bufferedRequest(br) {
			next, err := ParseRequest(br)
			if err != nil {
				return
			}
			reqs = append(reqs, next)
		}
		s.mu.Lock()
		s.requests += uint64(len(reqs))
		s.mu.Unlock()
		resps = s.DecideBatch(reqs, resps)
		// A write deadline too: Response.Write buffers, but Flush pushes
		// bytes to a peer whose receive window may be closed.
		if timeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		for _, resp := range resps {
			if err := resp.Write(bw); err != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			if isTimeout(err) {
				if inst := s.inst.Load(); inst != nil {
					inst.timeouts.Inc()
				}
			}
			return
		}
	}
}

// isTimeout reports whether err (possibly wrapped) is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// maxRequestBatch bounds how many buffered policy requests are decided
// per batch, so one slow engine pass can't starve the reply stream.
const maxRequestBatch = 64

// bufferedRequest reports whether br already holds at least one complete
// request — one or more attribute lines followed by a blank line — so
// ParseRequest is guaranteed not to block. Leading blank lines (which
// ParseRequest skips) do not count as completion.
func bufferedRequest(br *bufio.Reader) bool {
	n := br.Buffered()
	if n == 0 {
		return false
	}
	buf, err := br.Peek(n)
	if err != nil {
		return false
	}
	sawAttr := false
	start := 0
	for i, b := range buf {
		if b != '\n' {
			continue
		}
		line := buf[start:i]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			if sawAttr {
				return true
			}
		} else {
			sawAttr = true
		}
		start = i + 1
	}
	return false
}

// Decide maps one policy request to an action. Exposed for testing and
// for embedding in other servers.
func (s *Server) Decide(req Request) Response {
	return s.decide(req, nil)
}

// decide is Decide with an optional trace handle: when tr is non-nil
// the greylist verdict lands in the trace.
func (s *Server) decide(req Request, tr *trace.Trace) Response {
	// Postgrey only acts at RCPT time; everything else passes.
	if st := req.ProtocolState(); st != "" && st != "RCPT" {
		return s.dunno()
	}
	if req.ClientAddress() == "" || req.Recipient() == "" {
		return s.dunno()
	}
	return s.actionFor(s.checker.CheckTraced(triplet(req), tr))
}

// SetTracer installs (or, with nil, removes) a transaction tracer.
// While set, every policy request becomes one finished trace — the
// parsed attributes, the greylist verdict and the wire action — and
// batch decisions fall back to per-request checks so each request's
// verdict is attributable. Safe to call concurrently with Serve.
func (s *Server) SetTracer(t *trace.Tracer) {
	if t == nil {
		s.tracer.Store(nil)
		return
	}
	s.tracer.Store(t)
}

// decideOneTraced runs one request under a fresh trace and finishes it
// with the wire action's outcome.
func (s *Server) decideOneTraced(t *trace.Tracer, req Request) Response {
	tr := t.StartSession(trace.Tags{Defense: "policyd"}, req.ClientAddress(), nil)
	resp := s.decide(req, tr)
	action, _, _ := strings.Cut(resp.Action, " ")
	tr.Policy(action, req.Recipient())
	tr.Finish(policyOutcome(action))
	return resp
}

// policyOutcome maps a wire action to the trace outcome label.
func policyOutcome(action string) string {
	switch action {
	case "DEFER_IF_PERMIT":
		return "deferred"
	default: // DUNNO, PREPEND
		return "passed"
	}
}

// DecideBatch maps a run of policy requests to actions, answering
// positionally. The greylistable requests share one CheckBatch call;
// semantics match calling Decide on each request in order. The result
// reuses out when it has capacity.
func (s *Server) DecideBatch(reqs []Request, out []Response) []Response {
	if inst := s.inst.Load(); inst != nil {
		inst.batchSize.Observe(float64(len(reqs)))
		start := time.Now()
		defer func() { inst.decideSeconds.ObserveDuration(time.Since(start)) }()
	}
	if cap(out) < len(reqs) {
		out = make([]Response, len(reqs))
	} else {
		out = out[:len(reqs)]
	}
	if t := s.tracer.Load(); t != nil {
		// Tracing mode: one trace per request, so each verdict is
		// individually attributable. Forgoes the amortized batch check.
		for i, req := range reqs {
			out[i] = s.decideOneTraced(t, req)
		}
		return out
	}
	if len(reqs) == 1 {
		for i, req := range reqs {
			out[i] = s.Decide(req)
		}
		return out
	}
	var (
		ts  []greylist.Triplet
		pos []int
	)
	for i, req := range reqs {
		if st := req.ProtocolState(); st != "" && st != "RCPT" {
			out[i] = s.dunno()
			continue
		}
		if req.ClientAddress() == "" || req.Recipient() == "" {
			out[i] = s.dunno()
			continue
		}
		ts = append(ts, triplet(req))
		pos = append(pos, i)
	}
	if len(ts) == 0 {
		return out
	}
	for j, v := range s.checker.CheckBatch(ts, nil) {
		out[pos[j]] = s.actionFor(v)
	}
	return out
}

func triplet(req Request) greylist.Triplet {
	return greylist.Triplet{
		ClientIP:  req.ClientAddress(),
		Sender:    req.Sender(),
		Recipient: req.Recipient(),
	}
}

// dunno returns the pass-through action, counting it when instrumented.
func (s *Server) dunno() Response {
	if inst := s.inst.Load(); inst != nil {
		inst.actDunno.Inc()
	}
	return Response{Action: "DUNNO"}
}

// actionFor maps a greylisting verdict to the wire action.
func (s *Server) actionFor(v greylist.Verdict) Response {
	switch v.Decision {
	case greylist.Pass:
		if s.PrependHeader && v.Reason == greylist.ReasonRetryAccepted {
			if inst := s.inst.Load(); inst != nil {
				inst.actPrepend.Inc()
			}
			return Response{Action: fmt.Sprintf(
				"PREPEND X-Greylist: delayed %d seconds by greynolist policy server",
				int(v.Waited.Seconds()))}
		}
		return s.dunno()
	default:
		if inst := s.inst.Load(); inst != nil {
			inst.actDefer.Inc()
		}
		return Response{Action: fmt.Sprintf(
			"DEFER_IF_PERMIT Greylisted, please try again in %d seconds",
			int(v.WaitRemaining.Seconds()))}
	}
}
