package smtpserver

// Zero-allocation wire path. Every reply the verb loop can emit with
// fixed text is rendered to wire bytes exactly once, at package (or
// server) init; the session writes those bytes straight into its
// buffered writer instead of re-rendering "250 2.0.0 OK" through
// Reply.String on every RSET of a 100k-session/sec soak. Dynamic
// replies (HELO greetings, hook verdicts) append into a per-session
// scratch buffer via Reply.AppendTo. Sessions themselves — struct,
// bufio.Reader/Writer, line scratch, reply scratch, DotReader — are
// pooled in a sync.Pool, so a million-connection soak recycles a few
// dozen sessions instead of allocating 8 KiB of buffers per dial.

import (
	"bufio"
	"net"
	"sync"
	"time"

	"repro/internal/smtpproto"
)

// staticReply is a pre-rendered single-reply wire image plus the two
// fields the observability paths need (reply counters want the code,
// verb traces want the first line).
type staticReply struct {
	code  int
	first string
	wire  []byte
}

// mkStatic renders a fixed reply once. The rendering goes through
// Reply.AppendTo, so the wire bytes are identical to what the old
// String-based path produced.
func mkStatic(code int, enhanced, text string) *staticReply {
	r := smtpproto.NewReply(code, enhanced, text)
	return &staticReply{code: code, first: text, wire: r.AppendTo(nil)}
}

// mkStaticLines renders a fixed multi-line reply once.
func mkStaticLines(code int, lines ...string) *staticReply {
	r := smtpproto.Reply{Code: code, Lines: lines}
	return &staticReply{code: code, first: lines[0], wire: r.AppendTo(nil)}
}

// The fixed command repertoire, rendered once.
var (
	replyOK           = mkStatic(250, "2.0.0", "OK")
	replySenderOK     = mkStatic(250, "2.1.0", "Sender OK")
	replyRcptOK       = mkStatic(250, "2.1.5", "Recipient OK")
	replyData354      = mkStatic(354, "", "Start mail input; end with <CRLF>.<CRLF>")
	replyAccepted     = mkStatic(250, "2.0.0", "OK: message accepted for delivery")
	replyVrfy         = mkStatic(252, "2.1.5", "Cannot VRFY user, send some mail and find out")
	replyHelp         = mkStaticLines(214, "Commands: HELO EHLO MAIL RCPT DATA RSET NOOP QUIT VRFY HELP")
	replyUnrecognized = mkStatic(500, "5.5.2", "Unrecognized command")
	replyNotRecog     = mkStatic(500, "5.5.2", "Command not recognized")
	replyLineTooLong  = mkStatic(500, "5.5.2", "Line too long")
	replyTooManyErrs  = mkStatic(421, "4.7.0", "Too many errors, closing connection")
	replyHostnameReq  = mkStatic(501, "5.5.4", "Hostname required")
	replyNeedHelo     = mkStatic(503, "5.5.1", "Send HELO/EHLO first")
	replyNestedMail   = mkStatic(503, "5.5.1", "Nested MAIL command")
	replyBadSender    = mkStatic(501, "5.5.4", "Bad sender address syntax")
	replyBadRcpt      = mkStatic(501, "5.5.4", "Bad recipient address syntax")
	replySizeLimit    = mkStatic(552, "5.3.4", "Message size exceeds limit")
	replyMsgTooBig    = mkStatic(552, "5.3.4", "Message exceeds size limit")
	replyTooManyRcpts = mkStatic(452, "4.5.3", "Too many recipients")
	replyNeedMail     = mkStatic(503, "5.5.1", "Need MAIL before RCPT")
	replyNeedRcpt     = mkStatic(503, "5.5.1", "Need RCPT before DATA")
	replyNeedMailRcpt = mkStatic(503, "5.5.1", "Need MAIL and RCPT before DATA")
	replyTLSNone      = mkStatic(502, "5.5.1", "TLS not available")
	replyTLSActive    = mkStatic(503, "5.5.1", "TLS already active")
	replyTLSNeedEhlo  = mkStatic(503, "5.5.1", "Send EHLO first")
	replyTLSGo        = mkStatic(220, "2.0.0", "Ready to start TLS")
)

// okRcptReply is the Reply-typed twin of replyRcptOK for the pipelined
// batch path, which mixes static accepts with hook-provided verdicts.
var okRcptReply = smtpproto.NewReply(250, "2.1.5", "Recipient OK")

// buildServerReplies precomputes the hostname-dependent wire images:
// the banner, the QUIT farewell, and the fixed tail of the EHLO
// extension listing (with and without STARTTLS).
func (s *Server) buildServerReplies() {
	s.banner = mkStatic(220, "", s.cfg.Hostname+" ESMTP ready")
	s.quit = mkStatic(221, "2.0.0", s.cfg.Hostname+" closing connection")

	tail := func(lines []string, last string) []byte {
		var buf []byte
		for _, l := range lines {
			buf = appendWireLine(buf, "250-", l)
		}
		return appendWireLine(buf, "250 ", last)
	}
	ext := []string{
		"PIPELINING",
		"SIZE " + itoa(s.cfg.MaxMessageSize),
		"8BITMIME",
	}
	s.ehloTail = tail(ext, "ENHANCEDSTATUSCODES")
	s.ehloTailTLS = tail(append(ext, "ENHANCEDSTATUSCODES"), "STARTTLS")
}

func appendWireLine(buf []byte, prefix, text string) []byte {
	buf = append(buf, prefix...)
	buf = append(buf, text...)
	return append(buf, '\r', '\n')
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// sessionPool recycles sessions with their buffered reader/writer and
// scratch buffers across connections.
var sessionPool = sync.Pool{New: func() any {
	return &session{
		br:      bufio.NewReader(nil),
		bw:      bufio.NewWriter(nil),
		lineBuf: make([]byte, 0, 128),
		out:     make([]byte, 0, 256),
	}
}}

// acquireSession checks a pooled session out for conn and rearms every
// field. Slices keep their backing arrays (capacity reuse is the whole
// point); anything handed to user hooks is either copied (Envelope) or
// detached before the session is pooled again (see releaseSession).
func (s *Server) acquireSession(conn net.Conn, clientIP string) *session {
	sess := sessionPool.Get().(*session)
	sess.srv = s
	sess.conn = conn
	sess.br.Reset(conn)
	sess.bw.Reset(conn)
	sess.clientIP = clientIP
	sess.state = stateConnected
	sess.helo = ""
	sess.sender = ""
	sess.senderSet = false
	sess.recipients = sess.recipients[:0]
	sess.errors = 0
	sess.replies4xx = 0
	sess.keepVerbs = s.cfg.Hooks.OnSessionEnd != nil
	sess.tlsActive = false
	sess.tr = nil
	sess.ownTrace = false
	sess.curVerb = ""
	sess.lastReply = time.Time{}
	sess.pipelined = false
	sess.trace = SessionTrace{
		ClientIP:  clientIP,
		StartedAt: s.cfg.Clock.Now(),
		Verbs:     sess.trace.Verbs[:0],
	}
	return sess
}

// releaseSession returns a session to the pool. When the OnSessionEnd
// hook saw the session's trace it may have retained it, so the Verbs
// backing array is surrendered rather than reused.
func (sess *session) release(retainTrace bool) {
	if retainTrace {
		sess.trace = SessionTrace{}
	}
	sess.srv = nil
	sess.conn = nil
	sess.br.Reset(nil)
	sess.bw.Reset(nil)
	sess.tr = nil
	sessionPool.Put(sess)
}
