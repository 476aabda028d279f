package smtpproto

import (
	"bufio"
	"bytes"
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

// FuzzParseMailArg: path parsing must never panic, and accepted
// mailboxes must round-trip through the client's MAIL FROM rendering.
func FuzzParseMailArg(f *testing.F) {
	f.Add("FROM:<a@b.example>")
	f.Add("FROM:<>")
	f.Add("FROM:<@r.example:u@d.example> SIZE=100")
	f.Add("junk")

	f.Fuzz(func(t *testing.T, input string) {
		mailbox, _, err := ParseMailArg(input)
		if err != nil {
			return
		}
		if mailbox == "" {
			return // null path
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
