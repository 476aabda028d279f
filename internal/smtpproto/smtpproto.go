// Package smtpproto implements the protocol grammar shared by the SMTP
// server and client: command parsing, reply formatting (including
// multi-line replies and RFC 2034 enhanced status codes), reverse/forward
// path parsing per RFC 5321, and transparent dot-stuffing for the DATA
// phase.
//
// Greylisting lives entirely inside this grammar: a greylisted delivery is
// nothing more than a 451 reply with enhanced code 4.7.1 at RCPT time, and
// whether a sender retries after it is precisely what separates a
// compliant MTA from a fire-and-forget spam bot (Section II of the paper).
package smtpproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Protocol limits from RFC 5321 §4.5.3.1.
const (
	// MaxCommandLine is the maximum total command line length including
	// CRLF.
	MaxCommandLine = 512
	// MaxTextLine is the maximum message text line length including
	// CRLF.
	MaxTextLine = 1000
	// MaxPathLength is the maximum reverse/forward path length.
	MaxPathLength = 256
)

// Errors returned by the parsers.
var (
	ErrLineTooLong   = errors.New("smtpproto: line too long")
	ErrBadSyntax     = errors.New("smtpproto: bad syntax")
	ErrBadPath       = errors.New("smtpproto: malformed path")
	ErrMessageTooBig = errors.New("smtpproto: message exceeds size limit")
)

// SMTP command verbs.
const (
	VerbHELO = "HELO"
	VerbEHLO = "EHLO"
	VerbMAIL = "MAIL"
	VerbRCPT = "RCPT"
	VerbDATA = "DATA"
	VerbRSET = "RSET"
	VerbNOOP = "NOOP"
	VerbQUIT = "QUIT"
	VerbVRFY = "VRFY"
	VerbHELP = "HELP"
)

// Command is a parsed SMTP command line.
type Command struct {
	// Verb is the upper-cased command verb.
	Verb string
	// Arg is the raw argument text following the verb, trimmed.
	Arg string
}

// String implements fmt.Stringer.
func (c Command) String() string {
	if c.Arg == "" {
		return c.Verb
	}
	return c.Verb + " " + c.Arg
}

// Reply is an SMTP reply: a three-digit code, an optional RFC 2034
// enhanced status code, and one or more text lines.
type Reply struct {
	Code     int
	Enhanced string // e.g. "4.7.1"; empty to omit
	Lines    []string
}

// NewReply builds a single-line reply.
func NewReply(code int, enhanced, text string) Reply {
	return Reply{Code: code, Enhanced: enhanced, Lines: []string{text}}
}

// Positive reports a 2xx code.
func (r Reply) Positive() bool { return r.Code >= 200 && r.Code < 300 }

// Intermediate reports a 3xx code (e.g. 354 after DATA).
func (r Reply) Intermediate() bool { return r.Code >= 300 && r.Code < 400 }

// Transient reports a 4xx code — the class greylisting uses, telling a
// compliant client to retry later.
func (r Reply) Transient() bool { return r.Code >= 400 && r.Code < 500 }

// Permanent reports a 5xx code.
func (r Reply) Permanent() bool { return r.Code >= 500 && r.Code < 600 }

// String renders the reply in wire format (with CRLFs), as AppendTo
// does.
func (r Reply) String() string { return string(r.AppendTo(nil)) }

// parseReplyLine folds one raw reply line into reply (code consistency,
// separator, enhanced status code), returning the text remainder and
// whether more lines follow.
func parseReplyLine(reply *Reply, line string) (rest string, more bool, err error) {
	if len(line) < 3 {
		return "", false, fmt.Errorf("%w: short reply line %q", ErrBadSyntax, line)
	}
	code := 0
	for _, c := range line[:3] {
		if c < '0' || c > '9' {
			return "", false, fmt.Errorf("%w: reply code %q", ErrBadSyntax, line[:3])
		}
		code = code*10 + int(c-'0')
	}
	if reply.Code != 0 && code != reply.Code {
		return "", false, fmt.Errorf("%w: inconsistent codes %d and %d", ErrBadSyntax, reply.Code, code)
	}
	reply.Code = code
	switch {
	case len(line) == 3:
	case line[3] == '-':
		more = true
		rest = line[4:]
	case line[3] == ' ':
		rest = line[4:]
	default:
		return "", false, fmt.Errorf("%w: separator in %q", ErrBadSyntax, line)
	}
	if reply.Enhanced == "" {
		if enh, remainder, ok := splitEnhanced(code, rest); ok {
			reply.Enhanced = enh
			rest = remainder
		}
	} else if enh, remainder, ok := splitEnhanced(code, rest); ok && enh == reply.Enhanced {
		rest = remainder
	}
	return rest, more, nil
}

// splitEnhanced recognizes a leading RFC 2034 enhanced status code whose
// class digit agrees with the reply code class.
func splitEnhanced(code int, s string) (enhanced, rest string, ok bool) {
	fields := strings.SplitN(s, " ", 2)
	cand := fields[0]
	parts := strings.Split(cand, ".")
	if len(parts) != 3 {
		return "", s, false
	}
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return "", s, false
		}
		for _, c := range p {
			if c < '0' || c > '9' {
				return "", s, false
			}
		}
	}
	if int(cand[0]-'0') != code/100 {
		return "", s, false
	}
	if len(fields) == 2 {
		return cand, fields[1], true
	}
	return cand, "", true
}

// ParseMailArg parses the argument of MAIL ("FROM:<path> [params]"),
// returning the reverse-path mailbox (empty for the null sender "<>") and
// any ESMTP parameters.
func ParseMailArg(arg string) (mailbox string, params map[string]string, err error) {
	return parsePathArg(arg, "FROM:")
}

// ParseRcptArg parses the argument of RCPT ("TO:<path> [params]").
func ParseRcptArg(arg string) (mailbox string, params map[string]string, err error) {
	mailbox, params, err = parsePathArg(arg, "TO:")
	if err == nil && mailbox == "" {
		return "", nil, fmt.Errorf("%w: empty forward-path", ErrBadPath)
	}
	return mailbox, params, err
}

// parsePathArg parses "<prefix><path> [params]", where prefix is
// "FROM:" or "TO:", matched case-insensitively.
func parsePathArg(arg, prefix string) (string, map[string]string, error) {
	rest, ok := cutPrefixFold(arg, prefix)
	if !ok {
		return "", nil, fmt.Errorf("%w: expected %s", ErrBadSyntax, prefix)
	}
	rest = strings.TrimLeft(rest, " ")
	if len(rest) == 0 || rest[0] != '<' {
		return "", nil, fmt.Errorf("%w: path must be angle-bracketed", ErrBadPath)
	}
	end := strings.IndexByte(rest, '>')
	if end < 0 {
		return "", nil, fmt.Errorf("%w: unterminated path", ErrBadPath)
	}
	path := rest[1:end]
	mailbox, err := parsePath(path)
	if err != nil {
		return "", nil, err
	}
	params, err := parseESMTPParams(strings.TrimSpace(rest[end+1:]))
	if err != nil {
		return "", nil, err
	}
	return mailbox, params, nil
}

func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return s, false
	}
	return s[len(prefix):], true
}

// parsePath handles the inside of <...>: optional source route
// ("@a,@b:user@dom") which RFC 5321 says receivers MUST accept and ignore,
// then the mailbox.
func parsePath(path string) (string, error) {
	if path == "" {
		return "", nil // null reverse-path
	}
	if len(path) > MaxPathLength {
		return "", fmt.Errorf("%w: %d octets", ErrBadPath, len(path))
	}
	if path[0] == '@' {
		colon := strings.IndexByte(path, ':')
		if colon < 0 {
			return "", fmt.Errorf("%w: source route without colon", ErrBadPath)
		}
		path = path[colon+1:]
	}
	return parseMailbox(path)
}

// parseMailbox checks local@domain: the local part holds no space,
// tab or angle bracket, and the domain is dot-separated non-empty
// labels of ASCII letters, digits and "-_[]:". It allocates only for an
// error.
func parseMailbox(mbox string) (string, error) {
	at := strings.LastIndexByte(mbox, '@')
	if at <= 0 || at == len(mbox)-1 {
		return "", fmt.Errorf("%w: mailbox %q", ErrBadPath, mbox)
	}
	local, domain := mbox[:at], mbox[at+1:]
	for i := 0; i < len(local); i++ {
		switch local[i] {
		case ' ', '\t', '<', '>':
			return "", fmt.Errorf("%w: local part %q", ErrBadPath, local)
		}
	}
	label := 0 // bytes in the current label
	for i := 0; i < len(domain); i++ {
		switch c := domain[i]; {
		case c == '.' && label > 0:
			label = 0
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '[' || c == ']' || c == ':':
			label++
		default: // an empty label, or a byte no label may hold
			return "", fmt.Errorf("%w: domain %q", ErrBadPath, domain)
		}
	}
	if label == 0 {
		return "", fmt.Errorf("%w: domain %q", ErrBadPath, domain)
	}
	return mbox, nil
}

func parseESMTPParams(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	params := make(map[string]string)
	for _, field := range strings.Fields(s) {
		k, v, _ := strings.Cut(field, "=")
		if k == "" {
			return nil, fmt.Errorf("%w: parameter %q", ErrBadSyntax, field)
		}
		params[strings.ToUpper(k)] = v
	}
	return params, nil
}

// DomainOf returns the domain part of a mailbox, lower-cased, or "".
func DomainOf(mailbox string) string {
	at := strings.LastIndexByte(mailbox, '@')
	if at < 0 {
		return ""
	}
	return strings.ToLower(mailbox[at+1:])
}

// DotReader reads a DATA payload from br up to the terminating ".",
// transparently removing dot-stuffing and enforcing maxSize (0 = no
// limit). After it returns io.EOF, the terminator has been consumed.
// A DotReader can be reused across messages via Reset; its line scratch
// buffer survives the reset, so a pooled SMTP session reads every DATA
// payload without per-line allocation.
type DotReader struct {
	br      *bufio.Reader
	maxSize int
	read    int
	buf     []byte
	line    []byte // reusable line scratch (readLineAppend)
	done    bool
	tooBig  bool
}

// NewDotReader returns a DotReader over br.
func NewDotReader(br *bufio.Reader, maxSize int) *DotReader {
	return &DotReader{br: br, maxSize: maxSize}
}

// Reset rearms the reader for a new payload on br, keeping the line
// scratch buffer. The previous payload's backing array is released (it
// belongs to whoever received it from ReadAll).
func (d *DotReader) Reset(br *bufio.Reader, maxSize int) {
	d.br = br
	d.maxSize = maxSize
	d.read = 0
	d.buf = nil
	d.done = false
	d.tooBig = false
}

// TooBig reports whether the payload exceeded the size limit. The reader
// consumes the whole payload either way so the session can continue.
func (d *DotReader) TooBig() bool { return d.tooBig }

// nextLine fetches the next unstuffed payload line (no CRLF), handling
// size accounting. keep reports whether the line belongs in the payload
// (false once the size limit is exceeded); io.EOF means the terminator
// was consumed.
func (d *DotReader) nextLine() (line []byte, keep bool, err error) {
	for {
		l, err := readLineAppend(d.br, d.line, MaxTextLine)
		d.line = l[:0]
		if err != nil {
			if errors.Is(err, ErrLineTooLong) {
				// Keep the oversized line's tail out of the message but
				// keep reading; mark as oversized.
				d.tooBig = true
				continue
			}
			if errors.Is(err, io.EOF) {
				// Stream ended before the ".": the message is incomplete.
				return nil, false, io.ErrUnexpectedEOF
			}
			return nil, false, err
		}
		if len(l) == 1 && l[0] == '.' {
			d.done = true
			return nil, false, io.EOF
		}
		if len(l) > 0 && l[0] == '.' {
			l = l[1:] // unstuff
		}
		d.read += len(l) + 2
		if d.maxSize > 0 && d.read > d.maxSize {
			d.tooBig = true
			return l, false, nil // drain to terminator without buffering
		}
		return l, true, nil
	}
}

// Read implements io.Reader.
func (d *DotReader) Read(p []byte) (int, error) {
	for len(d.buf) == 0 {
		if d.done {
			return 0, io.EOF
		}
		line, keep, err := d.nextLine()
		if err != nil {
			if errors.Is(err, io.EOF) && d.done {
				return 0, io.EOF
			}
			return 0, err
		}
		if !keep {
			continue
		}
		d.buf = append(d.buf, line...)
		d.buf = append(d.buf, '\r', '\n')
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// ReadAll drains the DotReader and returns the payload in one buffer
// (ownership passes to the caller; Reset releases it).
func (d *DotReader) ReadAll() ([]byte, error) {
	out := d.buf
	d.buf = nil
	for !d.done {
		line, keep, err := d.nextLine()
		if err != nil {
			if errors.Is(err, io.EOF) && d.done {
				break
			}
			return nil, err
		}
		if !keep {
			continue
		}
		out = append(out, line...)
		out = append(out, '\r', '\n')
	}
	if d.tooBig {
		return out, ErrMessageTooBig
	}
	return out, nil
}

// WriteDotStuffed writes data to w with dot-stuffing applied and the final
// "CRLF.CRLF" terminator appended. The data is normalized to CRLF line
// endings.
func WriteDotStuffed(w io.Writer, data []byte) error {
	bw := bufio.NewWriter(w)
	lines := strings.Split(strings.ReplaceAll(string(data), "\r\n", "\n"), "\n")
	// A trailing newline produces one empty trailing element; drop it so
	// we don't emit a spurious blank line before the terminator.
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	for _, line := range lines {
		if strings.HasPrefix(line, ".") {
			if err := bw.WriteByte('.'); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
		if _, err := bw.WriteString("\r\n"); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(".\r\n"); err != nil {
		return err
	}
	return bw.Flush()
}
