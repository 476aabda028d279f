// Package smtpclient implements an SMTP client and the RFC 5321 delivery
// procedure used by every *benign* sender in the reproduction: resolve the
// recipient domain's MX records, try each exchanger in priority order, and
// classify the outcome as delivered, transient failure (requeue and retry
// later — the behaviour greylisting relies on) or permanent failure
// (bounce).
//
// The spam-bot models in package botnet reuse the low-level Client but
// deliberately violate the MX-walking procedure in the four ways
// Section IV-B of the paper catalogues.
package smtpclient

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"

	"repro/internal/dnsresolver"
	"repro/internal/netsim"
	"repro/internal/smtpproto"
	"repro/internal/trace"
)

// SMTPPort is the canonical SMTP port.
const SMTPPort = "25"

// Dialer opens connections to "ip:port" addresses. Implementations exist
// for the real network and for netsim.
type Dialer interface {
	Dial(raddr string) (net.Conn, error)
}

// NetDialer dials over the real network. The zero value is ready to use.
type NetDialer struct{}

var _ Dialer = NetDialer{}

// Dial implements Dialer.
func (NetDialer) Dial(raddr string) (net.Conn, error) {
	return net.Dial("tcp", raddr)
}

// SimDialer dials over a netsim.Network from a fixed source IP, assigning
// ephemeral source ports. It is how every simulated sender — benign or
// bot — gets its client address, which is in turn the first element of the
// greylisting triplet.
type SimDialer struct {
	// Net is the simulated network.
	Net *netsim.Network
	// LocalIP is the sender's address.
	LocalIP string

	port atomic.Uint32
}

var _ Dialer = (*SimDialer)(nil)

// Dial implements Dialer.
func (d *SimDialer) Dial(raddr string) (net.Conn, error) {
	port := 10000 + d.port.Add(1)%50000
	return d.Net.Dial(fmt.Sprintf("%s:%d", d.LocalIP, port), raddr)
}

// TraceDialer is implemented by dialers that can attach the caller's
// trace to the connections they open, so the accepting server records
// into the same trace (netsim-backed dialers).
type TraceDialer interface {
	Dialer
	DialTrace(raddr string, tr *trace.Trace) (net.Conn, error)
}

var _ TraceDialer = (*SimDialer)(nil)

// DialTrace implements TraceDialer: the dial outcome is recorded into
// tr and the simulated connection carries it across the network.
func (d *SimDialer) DialTrace(raddr string, tr *trace.Trace) (net.Conn, error) {
	port := 10000 + d.port.Add(1)%50000
	return d.Net.DialTrace(fmt.Sprintf("%s:%d", d.LocalIP, port), raddr, tr)
}

// dialTraced routes a dial through the dialer's traced path when it
// has one; otherwise the plain dial is recorded client-side only.
func dialTraced(dialer Dialer, raddr string, tr *trace.Trace) (net.Conn, error) {
	if td, ok := dialer.(TraceDialer); ok && tr != nil {
		return td.DialTrace(raddr, tr)
	}
	conn, err := dialer.Dial(raddr)
	tr.Dial(raddr, err)
	return conn, err
}

// Error is a non-2xx SMTP reply surfaced as an error.
type Error struct {
	// Cmd is the command that elicited the reply ("connect" for the
	// banner).
	Cmd string
	// Reply is the server's reply.
	Reply smtpproto.Reply
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("smtpclient: %s: %03d %s", e.Cmd, e.Reply.Code, strings.Join(e.Reply.Lines, " / "))
}

// Temporary reports whether the failure is transient (4xx), i.e. the
// delivery should be retried later. A greylisting deferral is exactly a
// temporary Error with code 451.
func (e *Error) Temporary() bool { return e.Reply.Transient() }

// Client is a connected SMTP client session.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// lineBuf is the reusable reply-line scratch for ParseReplyBuf; it
	// survives across commands.
	lineBuf []byte
	// Extensions holds the EHLO keywords announced by the server
	// (upper-cased keyword -> parameter string).
	Extensions map[string]string
}

// NewClient wraps an established connection and consumes the 220
// banner. On a banner error the connection is closed.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	banner, err := c.readReply()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("smtpclient: reading banner: %w", err)
	}
	if !banner.Positive() {
		conn.Close()
		return nil, &Error{Cmd: "connect", Reply: banner}
	}
	return c, nil
}

// readReply parses one server reply through the client's reusable
// line scratch.
func (c *Client) readReply() (smtpproto.Reply, error) {
	reply, buf, err := smtpproto.ParseReplyBuf(c.br, c.lineBuf)
	c.lineBuf = buf
	return reply, err
}

// Dial connects to addr via dialer and consumes the banner.
func Dial(dialer Dialer, addr string) (*Client, error) {
	conn, err := dialer.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("smtpclient: dial %s: %w", addr, err)
	}
	return NewClient(conn)
}

// DialTrace is Dial with the caller's trace attached to the
// connection (see TraceDialer). A nil trace behaves exactly like
// Dial.
func DialTrace(dialer Dialer, addr string, tr *trace.Trace) (*Client, error) {
	conn, err := dialTraced(dialer, addr, tr)
	if err != nil {
		return nil, fmt.Errorf("smtpclient: dial %s: %w", addr, err)
	}
	return NewClient(conn)
}

// cmd sends one command line and parses the reply. The CRLF is written
// separately so the command string is not re-concatenated per call.
func (c *Client) cmd(verb, line string) (smtpproto.Reply, error) {
	if _, err := c.bw.WriteString(line); err != nil {
		return smtpproto.Reply{}, fmt.Errorf("smtpclient: send %s: %w", verb, err)
	}
	if _, err := c.bw.WriteString("\r\n"); err != nil {
		return smtpproto.Reply{}, fmt.Errorf("smtpclient: send %s: %w", verb, err)
	}
	if err := c.bw.Flush(); err != nil {
		return smtpproto.Reply{}, fmt.Errorf("smtpclient: send %s: %w", verb, err)
	}
	reply, err := c.readReply()
	if err != nil {
		return smtpproto.Reply{}, fmt.Errorf("smtpclient: reply to %s: %w", verb, err)
	}
	return reply, nil
}

// expect runs cmd and converts non-matching replies to *Error.
func (c *Client) expect(verb, line string, okClass int) (smtpproto.Reply, error) {
	reply, err := c.cmd(verb, line)
	if err != nil {
		return reply, err
	}
	if reply.Code/100 != okClass {
		return reply, &Error{Cmd: verb, Reply: reply}
	}
	return reply, nil
}

// Hello greets the server with EHLO, falling back to HELO for servers
// that reject it. The announced extensions are recorded.
func (c *Client) Hello(heloName string) error {
	reply, err := c.cmd(smtpproto.VerbEHLO, "EHLO "+heloName)
	if err != nil {
		return err
	}
	if reply.Positive() {
		c.Extensions = parseExtensions(reply)
		return nil
	}
	if _, err := c.expect(smtpproto.VerbHELO, "HELO "+heloName, 2); err != nil {
		return err
	}
	c.Extensions = map[string]string{}
	return nil
}

// Helo greets with plain HELO only — old-style clients and several of the
// bot dialects do this.
func (c *Client) Helo(heloName string) error {
	_, err := c.expect(smtpproto.VerbHELO, "HELO "+heloName, 2)
	return err
}

func parseExtensions(reply smtpproto.Reply) map[string]string {
	ext := make(map[string]string)
	for i, line := range reply.Lines {
		if i == 0 {
			continue // greeting line
		}
		keyword, param, _ := strings.Cut(line, " ")
		ext[strings.ToUpper(keyword)] = param
	}
	return ext
}

// Mail sends MAIL FROM. An empty from sends the null reverse-path.
func (c *Client) Mail(from string) error {
	_, err := c.expect(smtpproto.VerbMAIL, "MAIL FROM:<"+from+">", 2)
	return err
}

// Rcpt sends RCPT TO.
func (c *Client) Rcpt(to string) error {
	_, err := c.expect(smtpproto.VerbRCPT, "RCPT TO:<"+to+">", 2)
	return err
}

// Data sends the DATA command, waits for the 354 go-ahead, then
// streams the dot-stuffed payload, terminates it and reads the server's
// verdict.
func (c *Client) Data(payload []byte) error {
	if _, err := c.expect(smtpproto.VerbDATA, "DATA", 3); err != nil {
		return err
	}
	if err := smtpproto.WriteDotStuffed(c.bw, payload); err != nil {
		return fmt.Errorf("smtpclient: sending payload: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("smtpclient: sending payload: %w", err)
	}
	reply, err := c.readReply()
	if err != nil {
		return fmt.Errorf("smtpclient: reply to payload: %w", err)
	}
	if !reply.Positive() {
		return &Error{Cmd: "DATA-END", Reply: reply}
	}
	return nil
}

// StartTLS upgrades the connection to TLS (RFC 3207). On success the
// protocol state is reset server-side; the caller MUST greet again with
// Hello before sending mail.
func (c *Client) StartTLS(cfg *tls.Config) error {
	if _, err := c.expect("STARTTLS", "STARTTLS", 2); err != nil {
		return err
	}
	tlsConn := tls.Client(c.conn, cfg)
	if err := tlsConn.Handshake(); err != nil {
		return fmt.Errorf("smtpclient: TLS handshake: %w", err)
	}
	c.conn = tlsConn
	c.br.Reset(tlsConn)
	c.bw.Reset(tlsConn)
	c.Extensions = nil
	return nil
}

// TLSActive reports whether the connection has been upgraded.
func (c *Client) TLSActive() bool {
	_, ok := c.conn.(*tls.Conn)
	return ok
}

// Reset sends RSET.
func (c *Client) Reset() error {
	_, err := c.expect(smtpproto.VerbRSET, "RSET", 2)
	return err
}

// Quit sends QUIT and closes the connection.
func (c *Client) Quit() error {
	_, err := c.cmd(smtpproto.VerbQUIT, "QUIT")
	c.conn.Close()
	return err
}

// Close closes the connection without QUIT — the abrupt disconnect many
// bots perform.
func (c *Client) Close() error { return c.conn.Close() }

// Message is one email to deliver.
type Message struct {
	// HeloName is the name announced at HELO/EHLO.
	HeloName string
	// From is the envelope sender.
	From string
	// To are the envelope recipients (all in the same domain for
	// DeliverMX).
	To []string
	// Data is the message content.
	Data []byte
}

// Outcome classifies a delivery attempt.
type Outcome int

// Outcomes.
const (
	// Delivered: at least one recipient accepted and message sent.
	Delivered Outcome = iota + 1
	// TransientFailure: a 4xx at some stage; retry later (greylisting
	// deferrals land here).
	TransientFailure
	// PermanentFailure: a 5xx; bounce, do not retry.
	PermanentFailure
	// Unreachable: no MX host could be contacted at all.
	Unreachable
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case TransientFailure:
		return "transient-failure"
	case PermanentFailure:
		return "permanent-failure"
	case Unreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Receipt reports the result of a DeliverMX call.
type Receipt struct {
	Outcome Outcome
	// Host is the MX host that produced the final outcome ("" when
	// nothing was reachable).
	Host string
	// Addr is the address dialed for the final outcome.
	Addr string
	// HostsTried counts MX addresses contacted.
	HostsTried int
	// LastError is the error behind a non-Delivered outcome.
	LastError error
}

// DeliverMX performs the RFC 5321 client-side delivery procedure for
// domain: look up its MX records, then try each exchanger in priority
// order (this is the step that defeats nolisting: the dead primary is
// skipped and the working secondary gets the mail). A transient error on
// one host moves on to the next; a permanent error aborts with a bounce.
func DeliverMX(res *dnsresolver.Resolver, dialer Dialer, domain string, msg Message) Receipt {
	return DeliverMXTrace(res, dialer, domain, msg, nil)
}

// DeliverMXTrace is DeliverMX with the whole walk recorded into tr:
// the MX lookup, every dial (including the refused primary that a
// nolisting defense presents), and the final outcome of each
// contacted host. A nil trace makes it identical to DeliverMX.
func DeliverMXTrace(res *dnsresolver.Resolver, dialer Dialer, domain string, msg Message, tr *trace.Trace) Receipt {
	hosts, err := res.LookupMXTrace(domain, tr)
	if err != nil {
		return Receipt{Outcome: Unreachable, LastError: fmt.Errorf("resolving %s: %w", domain, err)}
	}
	var lastTransient *Receipt
	tried := 0
	for _, h := range hosts {
		for _, addr := range h.Addrs {
			tried++
			full := net.JoinHostPort(addr, SMTPPort)
			outcome, err := attemptHostTrace(dialer, full, msg, tr)
			switch outcome {
			case Delivered:
				return Receipt{Outcome: Delivered, Host: h.Host, Addr: full, HostsTried: tried}
			case PermanentFailure:
				return Receipt{Outcome: PermanentFailure, Host: h.Host, Addr: full, HostsTried: tried, LastError: err}
			case TransientFailure:
				lastTransient = &Receipt{Outcome: TransientFailure, Host: h.Host, Addr: full, HostsTried: tried, LastError: err}
			case Unreachable:
				// connection failed; try next address/host
			}
		}
	}
	if lastTransient != nil {
		lastTransient.HostsTried = tried
		return *lastTransient
	}
	return Receipt{Outcome: Unreachable, HostsTried: tried,
		LastError: fmt.Errorf("no reachable MX for %s", domain)}
}

// attemptHostTrace runs one complete SMTP transaction against addr.
// SMTP verb events are recorded by the server side of a simulated
// connection (which shares tr via the carrier), so the client only
// records the dial here — no double counting.
func attemptHostTrace(dialer Dialer, addr string, msg Message, tr *trace.Trace) (Outcome, error) {
	client, err := DialTrace(dialer, addr, tr)
	if err != nil {
		var smtpErr *Error
		if errors.As(err, &smtpErr) {
			if smtpErr.Temporary() {
				return TransientFailure, err
			}
			return PermanentFailure, err
		}
		return Unreachable, err
	}
	defer client.Close()

	classify := func(err error) (Outcome, error) {
		var smtpErr *Error
		if errors.As(err, &smtpErr) {
			if smtpErr.Temporary() {
				return TransientFailure, err
			}
			return PermanentFailure, err
		}
		return Unreachable, err
	}

	if err := client.Hello(msg.HeloName); err != nil {
		return classify(err)
	}
	if err := client.Mail(msg.From); err != nil {
		return classify(err)
	}
	accepted := 0
	var rcptErr error
	for _, to := range msg.To {
		if err := client.Rcpt(to); err != nil {
			rcptErr = err
			continue
		}
		accepted++
	}
	if accepted == 0 {
		return classify(rcptErr)
	}
	if err := client.Data(msg.Data); err != nil {
		return classify(err)
	}
	client.Quit()
	return Delivered, nil
}

// BatchReceipt pairs a message index with its delivery outcome.
type BatchReceipt struct {
	// Index is the message's position in the DeliverBatch input.
	Index int
	// Outcome classifies the result for this message.
	Outcome Outcome
	// Host is the MX host that produced the outcome.
	Host string
	// LastError is the error behind a non-Delivered outcome.
	LastError error
}

// DeliverBatch delivers several messages for one domain over a single
// SMTP connection, the way real MTAs drain a per-domain queue (RFC 5321
// explicitly allows multiple transactions per session). The MX walk is
// performed once; each message is then one MAIL/RCPT/DATA transaction,
// with RSET recovering from per-message failures. If the connection dies
// mid-batch, the remaining messages are reported Unreachable so the
// caller can requeue them.
func DeliverBatch(res *dnsresolver.Resolver, dialer Dialer, domain string, msgs []Message) []BatchReceipt {
	receipts := make([]BatchReceipt, len(msgs))
	for i := range receipts {
		receipts[i] = BatchReceipt{Index: i, Outcome: Unreachable}
	}
	if len(msgs) == 0 {
		return receipts
	}
	hosts, err := res.LookupMX(domain)
	if err != nil {
		for i := range receipts {
			receipts[i].LastError = err
		}
		return receipts
	}

	for _, h := range hosts {
		for _, addr := range h.Addrs {
			full := net.JoinHostPort(addr, SMTPPort)
			client, err := Dial(dialer, full)
			if err != nil {
				continue // next address / host
			}
			if err := client.Hello(msgs[0].HeloName); err != nil {
				client.Close()
				continue
			}
			done := runBatch(client, h.Host, msgs, receipts)
			client.Quit()
			if done {
				return receipts
			}
			// Connection died mid-batch; remaining messages stay
			// Unreachable for the caller to requeue.
			return receipts
		}
	}
	return receipts
}

// runBatch performs one transaction per message on an established
// session. It reports false if the session broke mid-way.
func runBatch(client *Client, host string, msgs []Message, receipts []BatchReceipt) bool {
	classify := func(i int, err error) bool {
		receipts[i].Host = host
		receipts[i].LastError = err
		var smtpErr *Error
		if errors.As(err, &smtpErr) {
			if smtpErr.Temporary() {
				receipts[i].Outcome = TransientFailure
			} else {
				receipts[i].Outcome = PermanentFailure
			}
			return true // session still usable after RSET
		}
		receipts[i].Outcome = Unreachable
		return false // I/O error: session dead
	}

	for i, msg := range msgs {
		if err := client.Mail(msg.From); err != nil {
			if !classify(i, err) {
				return false
			}
			client.Reset()
			continue
		}
		accepted := 0
		var rcptErr error
		for _, to := range msg.To {
			if err := client.Rcpt(to); err != nil {
				rcptErr = err
				var smtpErr *Error
				if !errors.As(err, &smtpErr) {
					classify(i, err)
					return false
				}
				continue
			}
			accepted++
		}
		if accepted == 0 {
			classify(i, rcptErr)
			client.Reset()
			continue
		}
		if err := client.Data(msg.Data); err != nil {
			if !classify(i, err) {
				return false
			}
			client.Reset()
			continue
		}
		receipts[i].Outcome = Delivered
		receipts[i].Host = host
		receipts[i].LastError = nil
	}
	return true
}
