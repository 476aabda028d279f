package smtpproto

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"
)

// FuzzParseReply: the reply parser must never panic and must only accept
// replies whose re-rendering it would parse identically.
func FuzzParseReply(f *testing.F) {
	f.Add("250 OK\r\n")
	f.Add("451 4.7.1 Greylisted\r\n")
	f.Add("250-a\r\n250-b\r\n250 c\r\n")
	f.Add("xyz\r\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, input string) {
		r, err := ParseReply(bufio.NewReader(strings.NewReader(input)))
		if err != nil {
			return
		}
		r2, err := ParseReply(bufio.NewReader(strings.NewReader(r.String())))
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", r.String(), err)
		}
		if r2.Code != r.Code || r2.Enhanced != r.Enhanced {
			t.Fatalf("unstable: %+v vs %+v", r, r2)
		}
	})
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

// FuzzParseCommandBytes: the server's byte parser returns the same
// Command and the same error text as ParseCommand on every line.
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
		want, werr := ParseCommand(string(line))
		if got != want || errText(gerr) != errText(werr) {
			t.Fatalf("%q: ParseCommandBytes = %+v, %v; ParseCommand = %+v, %v", line, got, gerr, want, werr)
		}
	})
}

// FuzzReadCommandLineAppend: on any byte stream, the server's
// buffer-reusing line reader returns the same lines and errors, in the
// same order, as ReadCommandLine. The 16-byte reader buffer makes short
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
				want, werr := ReadCommandLine(ref)
				got, gerr := ReadCommandLineAppend(br, buf)
				buf = got[:0]
				if string(got) != want || gerr != werr {
					t.Fatalf("buffer %d, line %d: ReadCommandLineAppend = %q, %v; ReadCommandLine = %q, %v",
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
