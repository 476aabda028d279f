package smtpproto

// Zero-allocation wire helpers. The server's verb loop and the client's
// command loop run once per SMTP command: every reply used to be
// rendered through Reply.String (a strings.Builder and several fmt
// calls per reply) and every command line read through a per-line
// strings.Builder. The helpers here append into caller-owned
// buffers instead, so a pooled session can serve an entire SMTP
// conversation without per-verb garbage. Byte-identity with the
// string-based paths is pinned by TestAppendToMatchesString and
// TestReadCommandLineAppendMatches.

import (
	"bufio"
	"bytes"
	"strings"
)

// AppendTo appends the wire form of the reply (with CRLFs) to buf and
// returns the extended buffer. The output is byte-identical to String.
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
// status code, text, with String's trailing-space trimming semantics.
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
// buf[:0] (bare LF tolerated, CR stripped), enforcing MaxCommandLine
// exactly like ReadCommandLine. The returned slice aliases buf's
// backing array and is valid until the next call with the same buffer;
// callers reuse one buffer per session, so the steady state reads
// commands with zero allocations.
func ReadCommandLineAppend(br *bufio.Reader, buf []byte) ([]byte, error) {
	return readLineAppend(br, buf, MaxCommandLine)
}

// readLineAppend is readLine appending into a reusable buffer, using
// ReadSlice so the common short-line case is one memchr instead of a
// byte-at-a-time loop.
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
				// Drain the rest of the oversized line so the session
				// can resynchronize, as readLine does.
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
			// readLine has already refused the line by the time the
			// stream ends or fails.
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

// ParseCommandBytes parses one SMTP command line, semantically identical
// to ParseCommand(string(line)) but allocating only for the argument
// (and for verbs outside the standard repertoire).
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
			// Rare path: fall back for the identical error text.
			return ParseCommand(string(line))
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

// errEmptyCommand mirrors ParseCommand's empty-line error without
// reformatting it per call.
var errEmptyCommand = func() error {
	_, err := ParseCommand("")
	return err
}()

// ParseReplyBuf is ParseReply reading its lines through a reusable
// buffer: buf carries the line scratch across calls (pass the previous
// return value back in), so a client session's reply loop stops paying
// a strings.Builder per line. The returned Reply still owns its Lines.
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
