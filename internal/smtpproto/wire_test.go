package smtpproto

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// appendToCases covers every reply shape the server emits: single line,
// enhanced codes, multi-line, empty text, trailing spaces, no lines.
var appendToCases = []Reply{
	NewReply(220, "", "mail.example ESMTP ready"),
	NewReply(250, "2.0.0", "OK"),
	NewReply(451, "4.7.1", "Greylisted, please retry in 300 seconds"),
	NewReply(500, "5.5.2", "Unrecognized command"),
	{Code: 250, Lines: []string{"mail.example Hello client", "PIPELINING", "SIZE 10485760", "8BITMIME", "ENHANCEDSTATUSCODES"}},
	{Code: 214, Lines: []string{"Commands: HELO EHLO MAIL RCPT DATA RSET NOOP QUIT VRFY HELP"}},
	{Code: 250, Enhanced: "2.1.5", Lines: []string{"first", "", "last"}},
	{Code: 354, Lines: []string{""}},
	{Code: 221},
	NewReply(250, "", "trailing spaces   "),
	NewReply(250, "2.0.0", ""),
	{Code: 502, Enhanced: "5.5.1", Lines: []string{"a", "b"}},
}

func TestAppendToMatchesString(t *testing.T) {
	for _, r := range appendToCases {
		want := refReplyString(r)
		got := string(r.AppendTo(nil))
		if got != want {
			t.Errorf("AppendTo mismatch for %+v:\n got %q\nwant %q", r, got, want)
		}
		// Appending to a non-empty buffer must extend, not clobber.
		buf := []byte("prefix")
		if got := string(r.AppendTo(buf)); got != "prefix"+want {
			t.Errorf("AppendTo with prefix: got %q", got)
		}
		if got := r.String(); got != want {
			t.Errorf("String mismatch for %+v:\n got %q\nwant %q", r, got, want)
		}
	}
}

func TestAppendToAllocs(t *testing.T) {
	r := NewReply(250, "2.1.5", "Recipient OK")
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		buf = r.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendTo into a sized buffer allocated %.1f times/op", allocs)
	}
}

func TestReadCommandLineAppendMatches(t *testing.T) {
	inputs := []string{
		"EHLO client.example\r\n",
		"MAIL FROM:<a@b.example>\r\n",
		"bare-lf line\n",
		"\r\n",
		strings.Repeat("x", MaxCommandLine+10) + "\r\nNEXT\r\n", // oversized then resync
	}
	for _, in := range inputs {
		a := bufio.NewReader(strings.NewReader(in))
		b := bufio.NewReader(strings.NewReader(in))
		var buf []byte
		for {
			s1, err1 := refReadCommandLine(a)
			s2, err2 := ReadCommandLineAppend(b, buf)
			buf = s2[:0]
			if (err1 == nil) != (err2 == nil) || !errors.Is(err2, err1) && err1 != nil && !errors.Is(err1, ErrLineTooLong) {
				t.Fatalf("input %q: err mismatch %v vs %v", in, err1, err2)
			}
			if err1 != nil && errors.Is(err1, ErrLineTooLong) && !errors.Is(err2, ErrLineTooLong) {
				t.Fatalf("input %q: want ErrLineTooLong, got %v", in, err2)
			}
			if err1 != nil && !errors.Is(err1, ErrLineTooLong) {
				break // both hit EOF
			}
			if s1 != string(s2) {
				t.Fatalf("input %q: line mismatch %q vs %q", in, s1, s2)
			}
			if err1 != nil && err2 != nil {
				continue // both saw too-long; resync and keep reading
			}
		}
	}
}

func TestParseCommandBytesMatches(t *testing.T) {
	lines := []string{
		"EHLO client.example",
		"helo lower.example",
		"MAIL FROM:<a@b.example> SIZE=100",
		"RCPT TO:<u@foo.net>",
		"DATA",
		"rset",
		"NOOP ",
		"QUIT",
		"XUNKNOWN arg here",
		"starttls",
		"BAD-VERB x",
		"",
		"   ",
	}
	for _, line := range lines {
		c1, err1 := refParseCommand(line)
		c2, err2 := ParseCommandBytes([]byte(line))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: err mismatch %v vs %v", line, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Errorf("%q: error text mismatch %q vs %q", line, err1, err2)
			}
			continue
		}
		if c1 != c2 {
			t.Errorf("%q: command mismatch %+v vs %+v", line, c1, c2)
		}
	}
}

// TestParseCommandBytesInterns pins the zero-alloc contract for
// argument-less commands: known verbs come back as interned constants.
func TestParseCommandBytesInterns(t *testing.T) {
	line := []byte("RSET")
	allocs := testing.AllocsPerRun(100, func() {
		c, err := ParseCommandBytes(line)
		if err != nil || c.Verb != VerbRSET {
			t.Fatalf("ParseCommandBytes: %+v, %v", c, err)
		}
	})
	if allocs != 0 {
		t.Errorf("argument-less known verb allocated %.1f times/op", allocs)
	}
}

func TestParseReplyBufMatches(t *testing.T) {
	wire := "" +
		"220 mail.example ESMTP ready\r\n" +
		"250-mail.example Hello client\r\n250-PIPELINING\r\n250 ENHANCEDSTATUSCODES\r\n" +
		"250 2.1.0 Sender OK\r\n" +
		"451 4.7.1 Greylisted, please retry in 300 seconds\r\n" +
		"221 2.0.0 mail.example closing connection\r\n"
	a := bufio.NewReader(strings.NewReader(wire))
	b := bufio.NewReader(strings.NewReader(wire))
	var buf []byte
	for i := 0; i < 5; i++ {
		r1, err1 := refParseReply(a)
		var r2 Reply
		var err2 error
		r2, buf, err2 = ParseReplyBuf(b, buf)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("reply %d: err mismatch %v vs %v", i, err1, err2)
		}
		if r1.String() != r2.String() || r1.Code != r2.Code || r1.Enhanced != r2.Enhanced {
			t.Fatalf("reply %d mismatch:\n%+v\n%+v", i, r1, r2)
		}
	}
}
