package smtpproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzParseReplyBuf: on any byte stream, the buffer-reusing reply
// parser returns the same replies and error texts, in the same order,
// as refParseReply, and an accepted reply round-trips through AppendTo.
// The 16-byte reader buffer makes short lines take the buffer-full
// path; the 4096-byte one is bufio's default.
func FuzzParseReplyBuf(f *testing.F) {
	f.Add([]byte("250 OK\r\n"))
	f.Add([]byte("451 4.7.1 Greylisted\r\n"))
	f.Add([]byte("250-a\r\n250-b\r\n250 c\r\n"))
	f.Add([]byte("xyz\r\n"))
	f.Add([]byte(""))
	f.Add([]byte("250-first\r\n2.0.0\n250 2.0.0 second  \r\n221\r\n"))
	f.Add([]byte("250-first\r\n500 second\r\n250~sep\r\n451 2.0.0 odd\r\n"))

	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, size := range []int{16, 4096} {
			ref := bufio.NewReaderSize(bytes.NewReader(stream), size)
			br := bufio.NewReaderSize(bytes.NewReader(stream), size)
			var buf []byte
			for n := 1; ; n++ {
				want, werr := refParseReply(ref)
				got, next, gerr := ParseReplyBuf(br, buf)
				buf = next
				if got.Code != want.Code || got.Enhanced != want.Enhanced || !slices.Equal(got.Lines, want.Lines) ||
					errText(gerr) != errText(werr) {
					t.Fatalf("buffer %d, reply %d: ParseReplyBuf = %+v, %v; reference = %+v, %v",
						size, n, got, gerr, want, werr)
				}
				if werr == nil {
					roundTrip(t, got)
					continue
				}
				if !errors.Is(werr, ErrBadSyntax) && werr != ErrLineTooLong {
					break // the stream ended or failed
				}
			}
		}
	})
}

// roundTrip checks that r's wire form parses back to r's code and
// enhanced code, and renders to the same bytes again. Rendering puts
// the enhanced code on every line, which can push a line that lacked it
// past MaxTextLine; such a reply is not re-read.
func roundTrip(t *testing.T, r Reply) {
	t.Helper()
	wire := r.AppendTo(nil)
	again, _, err := ParseReplyBuf(bufio.NewReader(bytes.NewReader(wire)), nil)
	if err == ErrLineTooLong {
		return
	}
	if err != nil || again.Code != r.Code || again.Enhanced != r.Enhanced || string(again.AppendTo(nil)) != string(wire) {
		t.Fatalf("%+v renders as %q, which parses as %+v, %v", r, wire, again, err)
	}
}

// refParseReply is the reply parser as it was before its lines were read
// into a reusable buffer: the reference FuzzParseReplyBuf holds
// ParseReplyBuf to.
func refParseReply(br *bufio.Reader) (Reply, error) {
	var reply Reply
	for {
		line, err := refReadLine(br, MaxTextLine)
		if err != nil {
			return Reply{}, err
		}
		rest, more, err := parseReplyLine(&reply, line)
		if err != nil {
			return Reply{}, err
		}
		reply.Lines = append(reply.Lines, rest)
		if !more {
			return reply, nil
		}
	}
}

// FuzzParseMailArg: on every input, ParseMailArg and ParseRcptArg
// return the mailbox, params and error text of the reference parser
// below, never panic, and an accepted mailbox round-trips through the
// client's MAIL FROM rendering.
func FuzzParseMailArg(f *testing.F) {
	f.Add("FROM:<a@b.example>")
	f.Add("FROM:<>")
	f.Add("FROM:<@r.example:u@d.example> SIZE=100")
	f.Add("TO:<u0.1@dest.example> NOTIFY=NEVER")
	f.Add("to: <U@Dest.Example>")
	f.Add("TO:<>")
	f.Add("junk")
	f.Add("FROM:<a@.b.example>")
	f.Add("FROM:<a@b.example.>")
	f.Add("TO:<a@b..example>")
	f.Add("FROM:<a@.>")
	f.Add("FROM:<@>")
	f.Add("TO:<@>")
	f.Add("FROM:<a@b\xc3\xa4.example>")
	f.Add("TO:<\xff@b.example>")
	f.Add("FROM:<a b@c.example>")
	f.Add("TO:<a\tb@c.example>")
	f.Add("FROM:<<a@b.example>")
	f.Add("TO:<a<b@c.example> X=")

	f.Fuzz(func(t *testing.T, input string) {
		for _, p := range []struct {
			parse, ref func(string) (string, map[string]string, error)
		}{
			{ParseMailArg, func(s string) (string, map[string]string, error) { return refParsePathArg(s, "FROM") }},
			{ParseRcptArg, refParseRcptArg},
		} {
			mb, params, err := p.parse(input)
			wmb, wparams, werr := p.ref(input)
			if mb != wmb || !maps.Equal(params, wparams) || (params == nil) != (wparams == nil) || errText(err) != errText(werr) {
				t.Fatalf("%q: parsed %q, %v, %v; reference %q, %v, %v", input, mb, params, err, wmb, wparams, werr)
			}
		}

		mailbox, _, err := ParseMailArg(input)
		if err != nil || mailbox == "" {
			return // refused, or the null path
		}
		again, _, err := ParseMailArg("FROM:<" + mailbox + ">")
		if err != nil {
			t.Fatalf("accepted mailbox %q does not re-parse: %v", mailbox, err)
		}
		if again != mailbox {
			t.Fatalf("mailbox unstable: %q vs %q", mailbox, again)
		}
	})
}

// refParsePathArg, refParsePath and refParseMailbox are the path parser
// as it was before parseMailbox validated with byte loops: the
// reference FuzzParseMailArg holds the byte-loop parser to.
func refParsePathArg(arg, keyword string) (string, map[string]string, error) {
	rest, ok := cutPrefixFold(arg, keyword+":")
	if !ok {
		return "", nil, fmt.Errorf("%w: expected %s:", ErrBadSyntax, keyword)
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
	mailbox, err := refParsePath(path)
	if err != nil {
		return "", nil, err
	}
	params, err := parseESMTPParams(strings.TrimSpace(rest[end+1:]))
	if err != nil {
		return "", nil, err
	}
	return mailbox, params, nil
}

func refParseRcptArg(arg string) (string, map[string]string, error) {
	mailbox, params, err := refParsePathArg(arg, "TO")
	if err == nil && mailbox == "" {
		return "", nil, fmt.Errorf("%w: empty forward-path", ErrBadPath)
	}
	return mailbox, params, err
}

func refParsePath(path string) (string, error) {
	if path == "" {
		return "", nil
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
	return refParseMailbox(path)
}

func refParseMailbox(mbox string) (string, error) {
	at := strings.LastIndexByte(mbox, '@')
	if at <= 0 || at == len(mbox)-1 {
		return "", fmt.Errorf("%w: mailbox %q", ErrBadPath, mbox)
	}
	local, domain := mbox[:at], mbox[at+1:]
	if strings.ContainsAny(local, " \t<>") {
		return "", fmt.Errorf("%w: local part %q", ErrBadPath, local)
	}
	for _, label := range strings.Split(domain, ".") {
		if label == "" {
			return "", fmt.Errorf("%w: domain %q", ErrBadPath, domain)
		}
		for _, c := range label {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '[' || c == ']' || c == ':') {
				return "", fmt.Errorf("%w: domain %q", ErrBadPath, domain)
			}
		}
	}
	return mbox, nil
}

// refParseCommand is the string command parser the server's byte parser
// replaced: the reference FuzzParseCommandBytes holds it to.
func refParseCommand(line string) (Command, error) {
	line = strings.TrimRight(line, " ")
	if line == "" {
		return Command{}, fmt.Errorf("%w: empty command", ErrBadSyntax)
	}
	verb := line
	arg := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], strings.TrimSpace(line[i+1:])
	}
	for _, r := range verb {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return Command{}, fmt.Errorf("%w: verb %q", ErrBadSyntax, verb)
		}
	}
	return Command{Verb: strings.ToUpper(verb), Arg: arg}, nil
}

// FuzzParseCommandBytes: the server's byte parser returns the same
// Command and the same error text as refParseCommand on every line.
func FuzzParseCommandBytes(f *testing.F) {
	f.Add([]byte("MAIL FROM:<a@b.example> SIZE=100"))
	f.Add([]byte("rcpt to:<u@foo.net>   "))
	f.Add([]byte("StartTLS"))
	f.Add([]byte("XCLIENT  name=x\t"))
	f.Add([]byte(" lead"))
	f.Add([]byte("M@IL x"))
	f.Add([]byte("\xc3\x84HLO x"))
	f.Add([]byte("EHLO\tx"))
	f.Add([]byte("   "))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, line []byte) {
		got, gerr := ParseCommandBytes(line)
		want, werr := refParseCommand(string(line))
		if got != want || errText(gerr) != errText(werr) {
			t.Fatalf("%q: ParseCommandBytes = %+v, %v; reference = %+v, %v", line, got, gerr, want, werr)
		}
	})
}

// refReadCommandLine and refReadLine are the byte-at-a-time line reader
// the buffer-reusing one replaced: the reference FuzzReadCommandLineAppend
// holds it to.
func refReadCommandLine(br *bufio.Reader) (string, error) {
	return refReadLine(br, MaxCommandLine)
}

func refReadLine(br *bufio.Reader, limit int) (string, error) {
	var sb strings.Builder
	for {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return strings.TrimSuffix(sb.String(), "\r"), nil
		}
		if sb.Len() >= limit {
			// Drain the rest of the oversized line before reporting,
			// so the session can resynchronize.
			for {
				b, err := br.ReadByte()
				if err != nil || b == '\n' {
					break
				}
			}
			return "", ErrLineTooLong
		}
		sb.WriteByte(b)
	}
}

// refReplyString is the fmt-based reply renderer AppendTo replaced: the
// reference TestAppendToMatchesString holds it to.
func refReplyString(r Reply) string {
	lines := r.Lines
	if len(lines) == 0 {
		lines = []string{""}
	}
	var sb strings.Builder
	for i, line := range lines {
		sep := " "
		if i < len(lines)-1 {
			sep = "-"
		}
		text := line
		if r.Enhanced != "" {
			text = r.Enhanced + " " + line
		}
		text = strings.TrimRight(text, " ")
		if text == "" && sep == " " {
			fmt.Fprintf(&sb, "%03d\r\n", r.Code)
			continue
		}
		fmt.Fprintf(&sb, "%03d%s%s\r\n", r.Code, sep, text)
	}
	return sb.String()
}

// FuzzReadCommandLineAppend: on any byte stream, the server's
// buffer-reusing line reader returns the same lines and errors, in the
// same order, as refReadCommandLine. The 16-byte reader buffer makes short
// lines take the buffer-full path; the 4096-byte one is bufio's default.
func FuzzReadCommandLineAppend(f *testing.F) {
	long := strings.Repeat("x", MaxCommandLine)
	f.Add([]byte("EHLO a\r\nMAIL FROM:<a@b.example>\r\nRCPT TO:<u@foo.net>\r\nQUIT\r\n"))
	f.Add([]byte("EHLO bare-lf\nNOOP\r\n\r\n\n"))
	f.Add([]byte("MAIL FROM:<a@b.example>\r"))
	f.Add([]byte(long + "\nNOOP\r\n"))
	f.Add([]byte(long + "\r\nNOOP\r\n"))
	f.Add([]byte(long + "y"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, size := range []int{16, 4096} {
			ref := bufio.NewReaderSize(bytes.NewReader(stream), size)
			br := bufio.NewReaderSize(bytes.NewReader(stream), size)
			var buf []byte
			for n := 1; ; n++ {
				want, werr := refReadCommandLine(ref)
				got, gerr := ReadCommandLineAppend(br, buf)
				buf = got[:0]
				if string(got) != want || gerr != werr {
					t.Fatalf("buffer %d, line %d: ReadCommandLineAppend = %q, %v; reference = %q, %v",
						size, n, got, gerr, want, werr)
				}
				if werr != nil && werr != ErrLineTooLong {
					break
				}
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
