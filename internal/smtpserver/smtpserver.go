// Package smtpserver implements an RFC 5321 SMTP server with pluggable
// policy hooks. It is the reproduction's stand-in for the Postfix server
// the paper instrumented: the greylisting engine plugs into the RCPT hook
// (exactly where Postgrey sits as a Postfix policy service), and the lab
// harness uses the message hook to log every delivery with its virtual
// timestamp.
//
// The server implements the full command repertoire a compliant or
// non-compliant client may throw at it — HELO/EHLO, MAIL, RCPT, DATA,
// RSET, NOOP, VRFY, HELP, QUIT — with strict state-machine enforcement,
// size and recipient limits, and multi-error disconnection.
package smtpserver

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/trace"
)

// Envelope is one accepted (or attempted) message delivery.
type Envelope struct {
	// ClientIP is the connecting client's address without port.
	ClientIP string
	// Helo is the argument of the client's HELO/EHLO.
	Helo string
	// Sender is the envelope reverse-path ("" for bounces).
	Sender string
	// Recipients are the accepted forward-paths.
	Recipients []string
	// Data is the message content (headers + body, CRLF lines).
	Data []byte
	// ReceivedAt is the server clock time at acceptance.
	ReceivedAt time.Time
}

// Hooks are the policy extension points. Any nil hook defaults to
// acceptance. A hook returning a non-nil Reply short-circuits with that
// reply; for OnRcpt a transient reply is how greylisting defers a
// delivery.
type Hooks struct {
	// OnConnect runs before the banner; a non-nil reply (e.g. 554)
	// is sent and, if not 2xx, the connection is closed.
	OnConnect func(clientIP string) *smtpproto.Reply
	// OnHelo runs at HELO/EHLO.
	OnHelo func(clientIP, helo string) *smtpproto.Reply
	// OnMail runs at MAIL FROM.
	OnMail func(clientIP, sender string) *smtpproto.Reply
	// OnRcpt runs at RCPT TO — the greylisting decision point.
	OnRcpt func(clientIP, sender, recipient string) *smtpproto.Reply
	// OnRcptTraced, when set, is preferred over OnRcpt for lone RCPTs
	// and additionally receives the session's trace handle (nil when
	// the session is untraced), so the policy engine can record its
	// verdict into the same per-attempt trace the client started.
	OnRcptTraced func(tr *trace.Trace, clientIP, sender, recipient string) *smtpproto.Reply
	// OnRcptBatch, when set, decides a pipelined burst of RCPT commands
	// in one call (RFC 2920 clients send MAIL and every RCPT in a
	// single write; a batch-capable policy engine amortizes its locking
	// across the burst). Replies are positional: replies[i] answers
	// recipients[i], nil meaning accept; a short or nil slice accepts
	// the unmatched tail. recipients is session scratch, valid only
	// during the call. When both hooks are set the batch hook handles
	// pipelined runs and OnRcpt handles lone RCPTs; when only
	// OnRcptBatch is set it also receives lone RCPTs as length-1
	// batches. New wraps a bare OnRcptBatch into OnRcptBatchTraced.
	OnRcptBatch func(clientIP, sender string, recipients []string) []*smtpproto.Reply
	// OnRcptBatchTraced, when set, is preferred over OnRcptBatch and
	// additionally receives the session's trace handle (nil when
	// untraced), so the policy engine can record one verdict per
	// recipient of the burst into the session's trace.
	OnRcptBatchTraced func(tr *trace.Trace, clientIP, sender string, recipients []string) []*smtpproto.Reply
	// OnMessage runs after the DATA payload is received; returning nil
	// accepts the message.
	OnMessage func(env *Envelope) *smtpproto.Reply
	// OnSessionEnd runs after a session terminates (QUIT, disconnect or
	// forced close), receiving the session's protocol trace. The
	// dialect package fingerprints senders from these traces.
	OnSessionEnd func(trace *SessionTrace)
}

// SessionTrace is the protocol-level record of one SMTP session — the
// raw material for SMTP "dialect" fingerprinting in the spirit of
// Stringhini et al.'s B@bel, which the paper builds on: bots betray
// themselves through HELO instead of EHLO, missing QUIT, bogus HELO
// names and out-of-order commands.
type SessionTrace struct {
	// ClientIP is the peer address.
	ClientIP string
	// HeloName is the argument of the last HELO/EHLO ("" if none).
	HeloName string
	// UsedEHLO reports whether the client ever sent EHLO.
	UsedEHLO bool
	// SentQuit reports a polite QUIT before disconnect.
	SentQuit bool
	// Verbs is the sequence of command verbs received (upper-cased;
	// unparsable lines recorded as "?"). Only recorded when an
	// OnSessionEnd hook is configured, and capped at maxTraceVerbs so a
	// connection that pipelines millions of commands (a busy relay, a
	// hostile client) cannot grow an unbounded verb log; the opening
	// dialog is what sender fingerprinting reads anyway.
	Verbs []string
	// ProtocolErrors counts syntax and sequencing errors.
	ProtocolErrors int
	// MessagesSent counts accepted DATA transactions.
	MessagesSent int
	// StartedAt and EndedAt bound the session in server-clock time.
	StartedAt, EndedAt time.Time
}

// Config configures a Server.
type Config struct {
	// Hostname is announced in the banner and HELO replies.
	Hostname string
	// Clock stamps envelopes; nil means the real clock.
	Clock simtime.Clock
	// MaxMessageSize bounds the DATA payload; 0 means 10 MiB.
	MaxMessageSize int
	// MaxRecipients bounds RCPTs per envelope; 0 means 100.
	MaxRecipients int
	// MaxErrors disconnects clients after this many consecutive
	// protocol errors; 0 means 10.
	MaxErrors int
	// MaxRcptBatch bounds how many pipelined RCPT commands are drained
	// into one OnRcptBatch call; 0 means 64. Only consulted when
	// Hooks.OnRcptBatch is set.
	MaxRcptBatch int
	// TLS, when non-nil, enables STARTTLS (RFC 3207): EHLO announces
	// the capability and the STARTTLS verb upgrades the session.
	TLS *tls.Config
	// StampReceived prepends an RFC 5321 trace ("Received:") header to
	// every accepted message, as real MTAs must (§4.4). Off by default
	// so protocol tests see payloads byte-exact.
	StampReceived bool
	// ReadTimeout bounds how long the server waits for the next
	// command line (and for DATA payload progress). Zero disables the
	// timeout — virtual-time simulations rely on that, since their
	// wall-clock gaps are microseconds. Real deployments (greylistd)
	// should set it; RFC 5321 §4.5.3.2 suggests 5 minutes.
	ReadTimeout time.Duration
	// Tracer, when set, starts a server-originated trace for every
	// inbound session whose connection does not already carry one —
	// the greylistd case, where real TCP clients have no trace handle.
	// These are sampled sessions (trace.StartSampledSession): capped at
	// trace.MaxSessionEvents events and tail-sampled at Finish, since
	// the client controls their length and rate. Simulated connections
	// carrying the dialing client's trace (trace.Carrier) always record
	// into that trace instead, tracer or not. Nil disables
	// server-originated tracing at zero cost.
	Tracer *trace.Tracer
	// Hooks are the policy callbacks.
	Hooks Hooks
}

// Stats are cumulative server counters.
type Stats struct {
	Connections        uint64
	MessagesAccepted   uint64
	MessagesRejected   uint64
	RecipientsDeferred uint64
	ProtocolErrors     uint64
}

// Server is an SMTP server. Create with New.
type Server struct {
	cfg Config
	// now is cfg.Clock.Now bound once, so starting a session trace does
	// not allocate a method value per connection.
	now func() time.Time

	inst atomic.Pointer[instruments]

	// Pre-rendered hostname-dependent wire images (see wire.go): the
	// banner, the QUIT farewell and the EHLO extension tail are written
	// as fixed bytes instead of being re-rendered per session.
	banner      *staticReply
	quit        *staticReply
	ehloTail    []byte
	ehloTailTLS []byte

	// outcomes counts finished sessions by outcome class (delivered /
	// deferred / no-delivery, the sessionOutcome classification),
	// atomically so the observatory can poll them without the stats
	// mutex.
	outcomes [3]atomic.Uint64

	mu        sync.Mutex
	stats     Stats
	closed    bool
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	listeners []net.Listener
}

// Session-outcome classes, indexing OutcomeCounts.
const (
	OutcomeDelivered = iota // at least one message accepted
	OutcomeDeferred         // no delivery, at least one 4xx reply
	OutcomeNone             // no delivery, no transient pushback
)

// OutcomeCounts returns cumulative finished-session counts by class:
// delivered, deferred, no-delivery.
func (s *Server) OutcomeCounts() (delivered, deferred, none uint64) {
	return s.outcomes[OutcomeDelivered].Load(),
		s.outcomes[OutcomeDeferred].Load(),
		s.outcomes[OutcomeNone].Load()
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.Hostname == "" {
		cfg.Hostname = "mail.invalid"
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.Real{}
	}
	if cfg.MaxMessageSize == 0 {
		cfg.MaxMessageSize = 10 << 20
	}
	if cfg.MaxRecipients == 0 {
		cfg.MaxRecipients = 100
	}
	if cfg.MaxErrors == 0 {
		cfg.MaxErrors = 10
	}
	if cfg.MaxRcptBatch == 0 {
		cfg.MaxRcptBatch = 64
	}
	if h := cfg.Hooks.OnRcptBatch; h != nil && cfg.Hooks.OnRcptBatchTraced == nil {
		cfg.Hooks.OnRcptBatchTraced = func(_ *trace.Trace, clientIP, sender string, rcpts []string) []*smtpproto.Reply {
			return h(clientIP, sender, rcpts)
		}
	}
	s := &Server{cfg: cfg, now: cfg.Clock.Now, conns: make(map[net.Conn]struct{})}
	s.buildServerReplies()
	return s
}

// Hostname returns the announced hostname.
func (s *Server) Hostname() string { return s.cfg.Hostname }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Serve accepts connections on l until l is closed or the server is
// closed. Each connection is handled in a tracked goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("smtpserver: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			// netsim returns its own closed error; treat any accept
			// error after Close as clean shutdown.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("smtpserver: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.stats.Connections++
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

// Close stops every listener passed to Serve, closes active connections
// and waits for session goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	listeners := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// session state machine states
type sessionState int

const (
	stateConnected sessionState = iota + 1
	stateGreeted                // after HELO/EHLO
	stateMail                   // after MAIL FROM
	stateRcpt                   // after at least one RCPT TO
)

type session struct {
	srv      *Server
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	clientIP string

	state  sessionState
	helo   string
	sender string
	// senderSet distinguishes MAIL FROM:<> (bounce) from no MAIL yet.
	senderSet  bool
	recipients []string
	errors     int
	// replies4xx counts transient replies sent, accumulated as they go
	// out so sessionOutcome never has to re-walk the trace events.
	replies4xx int
	trace      SessionTrace
	// keepVerbs gates trace.Verbs accumulation: recording a verb log
	// nobody reads would grow without bound on long-lived pipelined
	// connections, so it is only kept when OnSessionEnd will see it.
	keepVerbs bool
	tlsActive bool

	// lineBuf is the reusable command-line scratch (ReadCommandLineAppend)
	// and out the reusable reply scratch (Reply.AppendTo); both survive
	// session reuse through the pool.
	lineBuf []byte
	out     []byte
	// dr is the pooled DATA payload reader; its line scratch survives
	// across messages and sessions.
	dr smtpproto.DotReader

	// tr is the conversation trace: carried by the connection (the
	// dialing client's trace) or server-originated via Config.Tracer.
	// Nil when tracing is off — every recording site nil-checks, so
	// the untraced verb loop is byte-identical to before.
	tr *trace.Trace
	// ownTrace marks a server-originated trace this session must
	// Finish (carried traces are finished by the dialing client).
	ownTrace bool
	// curVerb is the verb being answered and verbStart when its service
	// began; lastReply is the clock read that ended the previous verb.
	// pipelined records that a complete command line was already
	// buffered when the last reply went out (flush); that command
	// starts at lastReply, so a traced verb costs one clock read.
	curVerb   string
	verbStart time.Time
	lastReply time.Time
	pipelined bool

	// args and rcpts are the pipelined-RCPT batch scratch, reused
	// across batches and pooled sessions.
	args  []string
	rcpts []string
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	clientIP := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(clientIP); err == nil {
		clientIP = host
	}
	sess := s.acquireSession(conn, clientIP)
	sess.tr = trace.FromConn(conn)
	if sess.tr == nil && s.cfg.Tracer != nil {
		sess.tr = s.cfg.Tracer.StartSampledSession(trace.Tags{}, clientIP, s.now)
		sess.ownTrace = true
	}
	if sess.tr != nil {
		sess.curVerb = "connect"
		sess.verbStart = s.now()
	}
	inst := s.inst.Load()
	var start time.Time
	if inst != nil {
		start = time.Now()
	}
	sess.run()
	// Replies suppressed by the pipelining rule must hit the wire
	// before the connection closes.
	sess.bw.Flush()
	// Outcome accounting mirrors sessionOutcome's classification but
	// runs for every session, traced or not.
	switch {
	case sess.trace.MessagesSent > 0:
		s.outcomes[OutcomeDelivered].Add(1)
	case sess.replies4xx > 0:
		s.outcomes[OutcomeDeferred].Add(1)
	default:
		s.outcomes[OutcomeNone].Add(1)
	}
	hook := s.cfg.Hooks.OnSessionEnd
	if hook != nil {
		// The hook may retain the trace (dialect.Collector does), so it
		// gets a detached copy — the pooled session's own trace field is
		// recycled by the next connection. The copy still shares the
		// Verbs backing array, which release() surrenders below.
		sess.trace.EndedAt = s.cfg.Clock.Now()
		t := sess.trace
		hook(&t)
	}
	if sess.ownTrace {
		sess.tr.Finish(sess.sessionOutcome())
	}
	if inst != nil {
		// The session-latency bucket remembers this conversation as its
		// exemplar, linking slow buckets to concrete dialogs — but only a
		// trace the sampler kept, which /debug/traces?id= can resolve.
		inst.sessionSeconds.ObserveDurationExemplar(time.Since(start), sess.tr.ExemplarID())
	}
	sess.release(hook != nil)
}

// sessionOutcome classifies a server-originated trace at session end,
// from counters the session accumulated as it ran (no event re-walk).
func (sess *session) sessionOutcome() string {
	if sess.trace.MessagesSent > 0 {
		return "delivered"
	}
	if sess.replies4xx > 0 {
		return "deferred"
	}
	return "no-delivery"
}

// sendRaw is the single exit point for reply bytes: it feeds the reply
// counters and the verb trace, counts transient replies for
// sessionOutcome, writes the wire image and flushes.
func (sess *session) sendRaw(code int, first string, wire []byte) bool {
	if inst := sess.srv.inst.Load(); inst != nil {
		inst.countReply(code)
	}
	if sess.tr != nil {
		sess.traceVerb(code, first)
	}
	if code >= 400 && code < 500 {
		sess.replies4xx++
	}
	if _, err := sess.bw.Write(wire); err != nil {
		return false
	}
	return sess.flush()
}

// flush writes buffered replies out — unless at least one complete
// pipelined command line is already sitting in the read buffer, the
// RFC 2920 §3.2 server-side buffering rule. Replies to a pipelined
// burst then leave in one TCP segment (one write syscall) when the
// burst's last buffered command is answered, instead of one flush per
// command. Requiring a complete line rather than any buffered bytes
// keeps the no-deadlock invariant: the next command read is served
// from memory without blocking, so a suppressed reply can never stall
// the exchange on a half-received line. Paths that hand the socket to
// a different reader (DATA payload, STARTTLS handshake) or close it
// must force the flush with bw.Flush directly.
func (sess *session) flush() bool {
	sess.pipelined = false
	if n := sess.br.Buffered(); n > 0 {
		if buf, err := sess.br.Peek(n); err == nil && bytes.IndexByte(buf, '\n') >= 0 {
			sess.pipelined = true
			return true
		}
	}
	return sess.bw.Flush() == nil
}

// replyStatic sends a pre-rendered fixed reply.
func (sess *session) replyStatic(p *staticReply) bool {
	return sess.sendRaw(p.code, p.first, p.wire)
}

// reply sends a dynamic reply (hook verdicts), rendering it into the
// session's reusable scratch buffer.
func (sess *session) reply(r smtpproto.Reply) bool {
	sess.out = r.AppendTo(sess.out[:0])
	first := ""
	if len(r.Lines) > 0 {
		first = r.Lines[0]
	}
	return sess.sendRaw(r.Code, first, sess.out)
}

// traceVerb appends a per-verb trace event: the verb being answered,
// the reply code and first reply line, and the verb's service time on
// the server clock, stamped with the one clock read that ends it. Only
// called on traced sessions.
func (sess *session) traceVerb(code int, first string) {
	now := sess.srv.now()
	sess.tr.Verb(now, sess.curVerb, code, first, now.Sub(sess.verbStart))
	sess.lastReply = now
}

// startVerb marks the start of verb's service on a traced session.
// A command that was already buffered (pipelined behind the previous
// one) became serviceable when the previous reply was produced, so it
// reuses that clock read; a command the server had to wait for reads
// the clock once it arrives.
func (sess *session) startVerb(verb string) {
	sess.curVerb = verb
	if sess.pipelined {
		sess.verbStart = sess.lastReply
	} else {
		sess.verbStart = sess.srv.now()
	}
}

func (sess *session) run() {
	s := sess.srv
	if hook := s.cfg.Hooks.OnConnect; hook != nil {
		if r := hook(sess.clientIP); r != nil {
			sess.reply(*r)
			if !r.Positive() {
				return
			}
		} else if !sess.replyStatic(s.banner) {
			return
		}
	} else if !sess.replyStatic(s.banner) {
		return
	}

	for {
		sess.armReadTimeout()
		line, err := smtpproto.ReadCommandLineAppend(sess.br, sess.lineBuf)
		sess.lineBuf = line[:0]
		if err != nil {
			if errors.Is(err, smtpproto.ErrLineTooLong) {
				if !sess.protocolError(replyLineTooLong) {
					return
				}
				continue
			}
			return // client went away
		}
		cmd, err := smtpproto.ParseCommandBytes(line)
		if err != nil {
			sess.recordTraceVerb("?")
			if sess.tr != nil {
				sess.startVerb("?")
			}
			if inst := s.inst.Load(); inst != nil {
				inst.other.Inc()
			}
			if !sess.protocolError(replyUnrecognized) {
				return
			}
			continue
		}
		sess.recordTraceVerb(cmd.Verb)
		if sess.tr != nil {
			sess.startVerb(cmd.Verb)
		}
		if inst := s.inst.Load(); inst != nil {
			inst.countCommand(cmd.Verb)
		}
		if !sess.dispatch(cmd) {
			return
		}
	}
}

// maxTraceVerbs caps SessionTrace.Verbs; the opening dialog is what
// dialect fingerprinting reads, and an uncapped log would leak on
// connections that stream commands indefinitely.
const maxTraceVerbs = 512

// recordTraceVerb appends one verb to the session's dialog trace,
// subject to the keepVerbs gate and the maxTraceVerbs cap.
func (sess *session) recordTraceVerb(verb string) {
	if sess.keepVerbs && len(sess.trace.Verbs) < maxTraceVerbs {
		sess.trace.Verbs = append(sess.trace.Verbs, verb)
	}
}

// protocolError replies p, counts the error and reports whether the
// session should continue.
func (sess *session) protocolError(p *staticReply) bool {
	sess.srv.mu.Lock()
	sess.srv.stats.ProtocolErrors++
	sess.srv.mu.Unlock()
	sess.errors++
	sess.trace.ProtocolErrors++
	if sess.errors >= sess.srv.cfg.MaxErrors {
		sess.replyStatic(replyTooManyErrs)
		return false
	}
	return sess.replyStatic(p)
}

// dispatch handles one command; the return value reports whether the
// session continues.
func (sess *session) dispatch(cmd smtpproto.Command) bool {
	switch cmd.Verb {
	case smtpproto.VerbHELO:
		return sess.handleHelo(cmd.Arg, false)
	case smtpproto.VerbEHLO:
		return sess.handleHelo(cmd.Arg, true)
	case smtpproto.VerbMAIL:
		return sess.handleMail(cmd.Arg)
	case smtpproto.VerbRCPT:
		return sess.handleRcptPipeline(cmd.Arg)
	case smtpproto.VerbDATA:
		return sess.handleData()
	case smtpproto.VerbRSET:
		sess.resetEnvelope()
		if sess.state != stateConnected {
			sess.state = stateGreeted
		}
		return sess.replyStatic(replyOK)
	case smtpproto.VerbNOOP:
		return sess.replyStatic(replyOK)
	case "STARTTLS":
		return sess.handleStartTLS()
	case smtpproto.VerbQUIT:
		sess.trace.SentQuit = true
		sess.replyStatic(sess.srv.quit)
		return false
	case smtpproto.VerbVRFY:
		// RFC 5321 allows a noncommittal answer; disclosing users
		// aids spammers.
		return sess.replyStatic(replyVrfy)
	case smtpproto.VerbHELP:
		return sess.replyStatic(replyHelp)
	default:
		return sess.protocolError(replyNotRecog)
	}
}

func (sess *session) handleHelo(arg string, extended bool) bool {
	if arg == "" {
		return sess.protocolError(replyHostnameReq)
	}
	sess.trace.HeloName = arg
	if extended {
		sess.trace.UsedEHLO = true
	}
	if hook := sess.srv.cfg.Hooks.OnHelo; hook != nil {
		if r := hook(sess.clientIP, arg); r != nil {
			ok := sess.reply(*r)
			if r.Positive() {
				sess.helo = arg
				sess.state = stateGreeted
				sess.resetEnvelope()
			}
			return ok
		}
	}
	sess.helo = arg
	sess.state = stateGreeted
	sess.resetEnvelope()
	// The greeting line is the only dynamic part; append it into the
	// session scratch and, for EHLO, splice in the pre-rendered
	// extension tail.
	host := sess.srv.cfg.Hostname
	sess.out = sess.out[:0]
	if !extended {
		sess.out = append(sess.out, "250 "...)
	} else {
		sess.out = append(sess.out, "250-"...)
	}
	sess.out = append(sess.out, host...)
	sess.out = append(sess.out, " Hello "...)
	sess.out = append(sess.out, arg...)
	sess.out = append(sess.out, '\r', '\n')
	if extended {
		tail := sess.srv.ehloTail
		if sess.srv.cfg.TLS != nil && !sess.tlsActive {
			tail = sess.srv.ehloTailTLS
		}
		sess.out = append(sess.out, tail...)
	}
	first := ""
	if sess.tr != nil {
		first = host + " Hello " + arg
	}
	return sess.sendRaw(250, first, sess.out)
}

func (sess *session) handleMail(arg string) bool {
	if sess.state == stateConnected {
		return sess.protocolError(replyNeedHelo)
	}
	if sess.state != stateGreeted {
		return sess.protocolError(replyNestedMail)
	}
	sender, params, err := smtpproto.ParseMailArg(arg)
	if err != nil {
		return sess.protocolError(replyBadSender)
	}
	if size, ok := params["SIZE"]; ok {
		if n, err := strconv.Atoi(size); err == nil && n > sess.srv.cfg.MaxMessageSize {
			return sess.replyStatic(replySizeLimit)
		}
	}
	if hook := sess.srv.cfg.Hooks.OnMail; hook != nil {
		if r := hook(sess.clientIP, sender); r != nil {
			return sess.reply(*r)
		}
	}
	sess.sender = sender
	sess.senderSet = true
	sess.state = stateMail
	return sess.replyStatic(replySenderOK)
}

func (sess *session) handleRcpt(arg string) bool {
	if sess.state != stateMail && sess.state != stateRcpt {
		return sess.protocolError(replyNeedMail)
	}
	rcpt, _, err := smtpproto.ParseRcptArg(arg)
	if err != nil {
		return sess.protocolError(replyBadRcpt)
	}
	if len(sess.recipients) >= sess.srv.cfg.MaxRecipients {
		return sess.replyStatic(replyTooManyRcpts)
	}
	if r := sess.rcptVerdict(rcpt); r != nil {
		if r.Transient() {
			sess.srv.mu.Lock()
			sess.srv.stats.RecipientsDeferred++
			sess.srv.mu.Unlock()
		}
		return sess.reply(*r)
	}
	sess.recipients = append(sess.recipients, rcpt)
	sess.state = stateRcpt
	return sess.replyStatic(replyRcptOK)
}

// rcptVerdict runs the policy hook for one recipient: OnRcptTraced when
// set (it sees the session's trace handle, nil on untraced sessions),
// then OnRcpt, otherwise the batch hook as a length-1 batch, so an
// engine wired only for batching still vets lone RCPTs.
func (sess *session) rcptVerdict(rcpt string) *smtpproto.Reply {
	if hook := sess.srv.cfg.Hooks.OnRcptTraced; hook != nil {
		return hook(sess.tr, sess.clientIP, sess.sender, rcpt)
	}
	if hook := sess.srv.cfg.Hooks.OnRcpt; hook != nil {
		return hook(sess.clientIP, sess.sender, rcpt)
	}
	if hook := sess.srv.cfg.Hooks.OnRcptBatchTraced; hook != nil {
		sess.rcpts = append(sess.rcpts[:0], rcpt)
		if rs := hook(sess.tr, sess.clientIP, sess.sender, sess.rcpts); len(rs) > 0 {
			return rs[0]
		}
	}
	return nil
}

// handleRcptPipeline handles a RCPT command, and — when a batch hook is
// configured — drains any further RCPT commands a pipelining client
// (RFC 2920) has already sent, deciding the whole burst with one
// OnRcptBatchTraced call and one flush. Any irregularity (bad state, a
// parse error, the recipient cap, no pipelined data) falls back to the
// serial per-command path, byte-identical to handling each RCPT alone.
// Traced sessions batch too: the hook records one verdict per
// recipient, and the burst's verb events share one clock read.
func (sess *session) handleRcptPipeline(arg string) bool {
	hook := sess.srv.cfg.Hooks.OnRcptBatchTraced
	if hook == nil || (sess.state != stateMail && sess.state != stateRcpt) {
		return sess.handleRcpt(arg)
	}
	args := sess.drainPipelinedRcpts(arg)
	if len(args) == 1 {
		return sess.handleRcpt(arg)
	}

	rcpts := sess.rcpts[:0]
	for _, a := range args {
		r, _, err := smtpproto.ParseRcptArg(a)
		if err != nil {
			return sess.serialRcpts(args)
		}
		rcpts = append(rcpts, r)
	}
	sess.rcpts = rcpts
	if len(sess.recipients)+len(rcpts) > sess.srv.cfg.MaxRecipients {
		return sess.serialRcpts(args)
	}

	inst := sess.srv.inst.Load()
	if inst != nil {
		inst.rcptBatchSize.Observe(float64(len(rcpts)))
	}
	replies := hook(sess.tr, sess.clientIP, sess.sender, rcpts)
	var now time.Time
	if sess.tr != nil {
		now = sess.srv.now()
		sess.lastReply = now
	}
	deferred := 0
	sess.out = sess.out[:0]
	for i, rcpt := range rcpts {
		var r *smtpproto.Reply
		if i < len(replies) {
			r = replies[i]
		}
		if r == nil {
			sess.recipients = append(sess.recipients, rcpt)
			sess.state = stateRcpt
			r = &okRcptReply
		} else if r.Transient() {
			deferred++
		}
		if inst != nil {
			// These replies bypass sess.reply (one flush per batch), so
			// the class counters are fed here too.
			inst.countReply(r.Code)
		}
		if sess.tr != nil {
			// Same reason: the batch path skips sess.reply, so verb
			// events are recorded here. Every reply in the burst shares
			// the batch's service time and its one clock read.
			first := ""
			if len(r.Lines) > 0 {
				first = r.Lines[0]
			}
			sess.tr.Verb(now, sess.curVerb, r.Code, first, now.Sub(sess.verbStart))
		}
		sess.out = r.AppendTo(sess.out)
	}
	// Transient hook verdicts are the only 4xx replies the batch path
	// emits, so the deferral count doubles as the sessionOutcome feed.
	sess.replies4xx += deferred
	if _, err := sess.bw.Write(sess.out); err != nil {
		return false
	}
	if deferred > 0 {
		sess.srv.mu.Lock()
		sess.srv.stats.RecipientsDeferred += uint64(deferred)
		sess.srv.mu.Unlock()
	}
	return sess.flush()
}

// serialRcpts replays already-drained RCPT commands through the serial
// handler, preserving per-command error semantics exactly.
func (sess *session) serialRcpts(args []string) bool {
	for _, a := range args {
		if !sess.handleRcpt(a) {
			return false
		}
	}
	return true
}

// drainPipelinedRcpts returns arg plus the arguments of any complete
// RCPT command lines already sitting in the read buffer, consuming them.
// It never blocks: only fully-buffered lines are taken, and the first
// non-RCPT or unparsable line stops the drain (the main loop reads it
// normally). Drained verbs are recorded in the session trace just as the
// main loop would.
func (sess *session) drainPipelinedRcpts(arg string) []string {
	args := append(sess.args[:0], arg)
	max := sess.srv.cfg.MaxRcptBatch
	for len(args) < max {
		n := sess.br.Buffered()
		if n == 0 {
			break
		}
		buf, err := sess.br.Peek(n)
		if err != nil {
			break
		}
		nl := -1
		for i, b := range buf {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 || nl >= smtpproto.MaxCommandLine {
			break
		}
		line := buf[:nl]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		cmd, err := smtpproto.ParseCommandBytes(line)
		if err != nil || cmd.Verb != smtpproto.VerbRCPT {
			break
		}
		sess.br.Discard(nl + 1)
		sess.recordTraceVerb(cmd.Verb)
		if inst := sess.srv.inst.Load(); inst != nil {
			inst.countCommand(cmd.Verb)
		}
		args = append(args, cmd.Arg)
	}
	sess.args = args
	return args
}

func (sess *session) handleData() bool {
	if sess.state != stateRcpt {
		if sess.state == stateMail {
			return sess.protocolError(replyNeedRcpt)
		}
		return sess.protocolError(replyNeedMailRcpt)
	}
	if !sess.replyStatic(replyData354) {
		return false
	}
	// The payload reader takes over the socket: a 354 suppressed by the
	// pipelining rule would deadlock a conforming client that waits for
	// it before streaming the message.
	if sess.bw.Flush() != nil {
		return false
	}
	sess.armReadTimeout()
	sess.dr.Reset(sess.br, sess.srv.cfg.MaxMessageSize)
	data, err := sess.dr.ReadAll()
	if err != nil {
		if errors.Is(err, smtpproto.ErrMessageTooBig) {
			sess.srv.mu.Lock()
			sess.srv.stats.MessagesRejected++
			sess.srv.mu.Unlock()
			sess.resetEnvelope()
			sess.state = stateGreeted
			return sess.replyStatic(replyMsgTooBig)
		}
		return false // stream broken mid-DATA
	}

	receivedAt := sess.srv.cfg.Clock.Now()
	if sess.srv.cfg.StampReceived {
		with := "SMTP"
		if sess.tlsActive {
			with = "ESMTPS"
		}
		// Append-formatted trace header, byte-identical to the old
		// fmt.Sprintf("Received: from %s (%s) by %s with %s; %s\r\n").
		sess.out = sess.out[:0]
		sess.out = append(sess.out, "Received: from "...)
		sess.out = append(sess.out, sess.helo...)
		sess.out = append(sess.out, " ("...)
		sess.out = append(sess.out, sess.clientIP...)
		sess.out = append(sess.out, ") by "...)
		sess.out = append(sess.out, sess.srv.cfg.Hostname...)
		sess.out = append(sess.out, " with "...)
		sess.out = append(sess.out, with...)
		sess.out = append(sess.out, "; "...)
		sess.out = receivedAt.UTC().AppendFormat(sess.out, "Mon, 02 Jan 2006 15:04:05 -0700")
		sess.out = append(sess.out, '\r', '\n')
		stamped := make([]byte, 0, len(sess.out)+len(data))
		stamped = append(stamped, sess.out...)
		data = append(stamped, data...)
	}
	env := &Envelope{
		ClientIP:   sess.clientIP,
		Helo:       sess.helo,
		Sender:     sess.sender,
		Recipients: append([]string(nil), sess.recipients...),
		Data:       data,
		ReceivedAt: receivedAt,
	}
	var verdict *smtpproto.Reply
	if hook := sess.srv.cfg.Hooks.OnMessage; hook != nil {
		verdict = hook(env)
	}
	sess.resetEnvelope()
	sess.state = stateGreeted
	if verdict != nil {
		sess.srv.mu.Lock()
		if verdict.Positive() {
			sess.srv.stats.MessagesAccepted++
			sess.trace.MessagesSent++
		} else {
			sess.srv.stats.MessagesRejected++
		}
		sess.srv.mu.Unlock()
		return sess.reply(*verdict)
	}
	sess.srv.mu.Lock()
	sess.srv.stats.MessagesAccepted++
	sess.srv.mu.Unlock()
	sess.trace.MessagesSent++
	return sess.replyStatic(replyAccepted)
}

// armReadTimeout refreshes the connection's read deadline when the
// server has one configured. Skipped while bytes are already buffered:
// a pipelined burst is served from memory without blocking, so re-arming
// per command would only pay a clock read and deadline update per line —
// the deadline from the last wire read still bounds the next one, short
// by at most the time spent draining the buffer.
func (sess *session) armReadTimeout() {
	if t := sess.srv.cfg.ReadTimeout; t > 0 && sess.br.Buffered() == 0 {
		sess.conn.SetReadDeadline(time.Now().Add(t))
	}
}

func (sess *session) resetEnvelope() {
	sess.sender = ""
	sess.senderSet = false
	// Truncate, don't nil: the backing array is reused across
	// transactions and pooled sessions (Envelope gets its own copy).
	sess.recipients = sess.recipients[:0]
}
