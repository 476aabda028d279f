package smtpproto

// Zero-allocation wire helpers. The server's verb loop and the client's
// command loop run once per SMTP command, so the reply renderer, the
// line reader and the command and reply parsers append into
// caller-owned buffers: a pooled session can serve an entire SMTP
// conversation without per-verb garbage. Each is pinned to a plain
// string-based reference kept in the tests (TestAppendToMatchesString
// and the differential fuzz targets in fuzz_test.go).

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
)

// AppendTo appends the wire form of the reply (with CRLFs) to buf and
// returns the extended buffer: one line per element of Lines (one empty
// line when there are none), each the code, "-" before a continuation
// or " " on the last line, the enhanced code when set, then the text,
// trailing spaces trimmed. An empty last line renders as the bare code.
func (r Reply) AppendTo(buf []byte) []byte {
	lines := r.Lines
	if len(lines) == 0 {
		buf = r.appendLine(buf, "", true)
		return buf
	}
	for i, line := range lines {
		buf = r.appendLine(buf, line, i == len(lines)-1)
	}
	return buf
}

// appendLine renders one reply line: code, separator, optional enhanced
// status code, text, trailing spaces trimmed.
func (r Reply) appendLine(buf []byte, line string, last bool) []byte {
	buf = appendCode(buf, r.Code)
	sep := byte('-')
	if last {
		sep = ' '
	}
	mark := len(buf)
	buf = append(buf, sep)
	if r.Enhanced != "" {
		buf = append(buf, r.Enhanced...)
		buf = append(buf, ' ')
	}
	buf = append(buf, line...)
	for len(buf) > mark+1 && buf[len(buf)-1] == ' ' {
		buf = buf[:len(buf)-1]
	}
	if len(buf) == mark+1 && sep == ' ' {
		buf = buf[:mark] // bare "250\r\n" form
	}
	return append(buf, '\r', '\n')
}

// appendCode appends the three-digit reply code.
func appendCode(buf []byte, code int) []byte {
	return append(buf, byte('0'+code/100%10), byte('0'+code/10%10), byte('0'+code%10))
}

// ReadCommandLineAppend reads one CRLF-terminated command line into
// buf[:0], enforcing MaxCommandLine. Bare LF is tolerated (robustness
// principle), since real bots are sloppy about line endings — one of
// the SMTP "dialect" signals from Stringhini et al. the paper builds
// on — and one CR before the LF is stripped. The returned slice aliases
// buf's backing array and is valid until the next call with the same
// buffer; callers reuse one buffer per session, so the steady state
// reads commands with zero allocations.
func ReadCommandLineAppend(br *bufio.Reader, buf []byte) ([]byte, error) {
	return readLineAppend(br, buf, MaxCommandLine)
}

// readLineAppend reads one line into buf[:0], without its LF and one CR
// before it, using ReadSlice so the common short-line case is one
// memchr instead of a byte-at-a-time loop. A line of more than limit
// bytes before its LF is drained through the LF, so the session can
// resynchronize, and refused with ErrLineTooLong; so is one the stream
// cuts off past the limit.
func readLineAppend(br *bufio.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(buf) > limit {
				for {
					b, err := br.ReadByte()
					if err != nil || b == '\n' {
						break
					}
				}
				return buf[:0], ErrLineTooLong
			}
			continue
		}
		if len(buf) > limit {
			return buf[:0], ErrLineTooLong
		}
		return buf[:0], err
	}
	n := len(buf) - 1 // strip '\n'
	if n > limit {
		return buf[:0], ErrLineTooLong
	}
	if n > 0 && buf[n-1] == '\r' {
		n--
	}
	return buf[:n], nil
}

// verbTable lists every verb the server dispatches on; ParseCommandBytes
// interns matches so parsing a well-formed command allocates nothing
// beyond its argument.
var verbTable = []string{
	VerbHELO, VerbEHLO, VerbMAIL, VerbRCPT, VerbDATA,
	VerbRSET, VerbNOOP, VerbQUIT, VerbVRFY, VerbHELP,
	"STARTTLS",
}

// internVerb returns the canonical (upper-case, interned) spelling of a
// verb given its raw bytes, or "" when the verb is not in the table.
func internVerb(raw []byte) string {
	for _, v := range verbTable {
		if len(raw) != len(v) {
			continue
		}
		match := true
		for i := 0; i < len(raw); i++ {
			c := raw[i]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != v[i] {
				match = false
				break
			}
		}
		if match {
			return v
		}
	}
	return ""
}

// ParseCommandBytes parses one SMTP command line (without CRLF): an
// alphabetic verb, upper-cased, and the trimmed text after the first
// space as its argument. It allocates only for the argument (and for
// verbs outside the standard repertoire).
func ParseCommandBytes(line []byte) (Command, error) {
	line = bytes.TrimRight(line, " ")
	if len(line) == 0 {
		return Command{}, errEmptyCommand
	}
	verb := line
	var arg []byte
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], bytes.TrimSpace(line[i+1:])
	}
	for _, c := range verb {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return Command{}, fmt.Errorf("%w: verb %q", ErrBadSyntax, verb)
		}
	}
	v := internVerb(verb)
	if v == "" {
		v = strings.ToUpper(string(verb))
	}
	if len(arg) == 0 {
		return Command{Verb: v}, nil
	}
	return Command{Verb: v, Arg: string(arg)}, nil
}

// errEmptyCommand refuses an empty (or all-space) command line.
var errEmptyCommand = fmt.Errorf("%w: empty command", ErrBadSyntax)

// ParseReplyBuf parses a complete (possibly multi-line) reply from br,
// reading its lines through a reusable buffer: buf carries the line
// scratch across calls (pass the previous return value back in), so a
// client session's reply loop allocates no line buffer. Lines are
// limited to MaxTextLine. The returned Reply owns its Lines.
func ParseReplyBuf(br *bufio.Reader, buf []byte) (Reply, []byte, error) {
	var reply Reply
	for {
		line, err := readLineAppend(br, buf, MaxTextLine)
		if err != nil {
			return Reply{}, line[:0], err
		}
		buf = line[:cap(line)]
		rest, more, err := parseReplyLine(&reply, string(line))
		if err != nil {
			return Reply{}, buf, err
		}
		reply.Lines = append(reply.Lines, rest)
		if !more {
			return reply, buf, nil
		}
	}
}
