package smtpproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseCommand(t *testing.T) {
	cases := []struct {
		in      string
		verb    string
		arg     string
		wantErr bool
	}{
		{"HELO local.domain.name", "HELO", "local.domain.name", false},
		{"ehlo Example.ORG", "EHLO", "Example.ORG", false},
		{"MAIL FROM:<a@b.com> SIZE=100", "MAIL", "FROM:<a@b.com> SIZE=100", false},
		{"QUIT", "QUIT", "", false},
		{"NOOP ", "NOOP", "", false},
		{"rset", "RSET", "", false},
		{"", "", "", true},
		{"MA IL", "MA", "IL", false}, // verb "MA" is alphabetic, parses; server rejects later
		{"M@IL FROM:<x>", "", "", true},
	}
	for _, tc := range cases {
		got, err := ParseCommandBytes([]byte(tc.in))
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseCommandBytes(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCommandBytes(%q): %v", tc.in, err)
			continue
		}
		if got.Verb != tc.verb || got.Arg != tc.arg {
			t.Errorf("ParseCommandBytes(%q) = %+v, want verb=%q arg=%q", tc.in, got, tc.verb, tc.arg)
		}
	}
}

func TestCommandString(t *testing.T) {
	if got := (Command{Verb: "MAIL", Arg: "FROM:<a@b>"}).String(); got != "MAIL FROM:<a@b>" {
		t.Errorf("String = %q", got)
	}
	if got := (Command{Verb: "QUIT"}).String(); got != "QUIT" {
		t.Errorf("String = %q", got)
	}
}

func TestReadCommandLine(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("HELO a\r\nEHLO b\nQUIT\r\n"))
	for i, want := range []string{"HELO a", "EHLO b", "QUIT"} {
		got, err := ReadCommandLineAppend(br, nil)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("line %d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadCommandLineAppend(br, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF expected, got %v", err)
	}
}

func TestReadCommandLineTooLongResyncs(t *testing.T) {
	long := strings.Repeat("X", 2*MaxCommandLine)
	br := bufio.NewReader(strings.NewReader(long + "\r\nQUIT\r\n"))
	if _, err := ReadCommandLineAppend(br, nil); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
	// The reader must have consumed the oversized line so the next read
	// sees the following command.
	got, err := ReadCommandLineAppend(br, nil)
	if err != nil || string(got) != "QUIT" {
		t.Fatalf("after oversized line: %q, %v", got, err)
	}
}

func TestReplyString(t *testing.T) {
	cases := []struct {
		reply Reply
		want  string
	}{
		{NewReply(250, "", "OK"), "250 OK\r\n"},
		{NewReply(451, "4.7.1", "Greylisted, try again later"), "451 4.7.1 Greylisted, try again later\r\n"},
		{Reply{Code: 250, Lines: []string{"smtp.foo.net", "PIPELINING", "SIZE 10240000"}},
			"250-smtp.foo.net\r\n250-PIPELINING\r\n250 SIZE 10240000\r\n"},
		{Reply{Code: 221}, "221\r\n"},
	}
	for _, tc := range cases {
		if got := tc.reply.String(); got != tc.want {
			t.Errorf("Reply.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestReplyClassPredicates(t *testing.T) {
	if !NewReply(250, "", "x").Positive() || NewReply(250, "", "x").Transient() {
		t.Error("250 classification wrong")
	}
	if !NewReply(354, "", "x").Intermediate() {
		t.Error("354 classification wrong")
	}
	if !NewReply(451, "", "x").Transient() {
		t.Error("451 classification wrong")
	}
	if !NewReply(550, "", "x").Permanent() {
		t.Error("550 classification wrong")
	}
}

func parseReplyString(t *testing.T, s string) (Reply, error) {
	t.Helper()
	r, _, err := ParseReplyBuf(bufio.NewReader(strings.NewReader(s)), nil)
	return r, err
}

func TestParseReplySingleLine(t *testing.T) {
	r, err := parseReplyString(t, "250 OK\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 250 || len(r.Lines) != 1 || r.Lines[0] != "OK" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestParseReplyMultiLine(t *testing.T) {
	r, err := parseReplyString(t, "250-smtp.foo.net\r\n250-PIPELINING\r\n250 SIZE 10240000\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 250 || len(r.Lines) != 3 || r.Lines[2] != "SIZE 10240000" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestParseReplyEnhancedCode(t *testing.T) {
	r, err := parseReplyString(t, "451 4.7.1 Greylisted\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Enhanced != "4.7.1" || r.Lines[0] != "Greylisted" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestParseReplyEnhancedClassMismatchNotStripped(t *testing.T) {
	// "2.0.0" with a 451 code is not a valid enhanced code; keep it as text.
	r, err := parseReplyString(t, "451 2.0.0 odd\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Enhanced != "" || r.Lines[0] != "2.0.0 odd" {
		t.Fatalf("reply = %+v", r)
	}
}

func TestParseReplyErrors(t *testing.T) {
	for _, in := range []string{
		"25 OK\r\n",
		"abc nope\r\n",
		"250-first\r\n500 second\r\n",
		"250~sep\r\n",
	} {
		if _, err := parseReplyString(t, in); err == nil {
			t.Errorf("ParseReplyBuf(%q) succeeded", in)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	replies := []Reply{
		NewReply(250, "", "OK"),
		NewReply(451, "4.7.1", "Greylisted, try again in 300 seconds"),
		{Code: 250, Lines: []string{"host", "PIPELINING", "8BITMIME"}},
		{Code: 550, Enhanced: "5.1.1", Lines: []string{"No such user", "really"}},
	}
	for _, want := range replies {
		got, err := parseReplyString(t, want.String())
		if err != nil {
			t.Fatalf("ParseReplyBuf(%q): %v", want.String(), err)
		}
		if got.Code != want.Code || got.Enhanced != want.Enhanced || len(got.Lines) != len(want.Lines) {
			t.Fatalf("round trip %q -> %+v", want.String(), got)
		}
		for i := range got.Lines {
			if got.Lines[i] != want.Lines[i] {
				t.Fatalf("line %d: %q vs %q", i, got.Lines[i], want.Lines[i])
			}
		}
	}
}

func TestParseMailArg(t *testing.T) {
	cases := []struct {
		in      string
		mailbox string
		wantErr bool
		params  map[string]string
	}{
		{"FROM:<spammer@bot.example>", "spammer@bot.example", false, nil},
		{"FROM:<>", "", false, nil}, // null reverse path (bounces)
		{"from:<User@Dom.example> SIZE=1000 BODY=8BITMIME", "User@Dom.example", false,
			map[string]string{"SIZE": "1000", "BODY": "8BITMIME"}},
		{"FROM: <relaxed@spacing.example>", "relaxed@spacing.example", false, nil},
		{"FROM:<@relay1.example,@relay2.example:user@final.example>", "user@final.example", false, nil},
		{"TO:<a@b.example>", "", true, nil},
		{"FROM:a@b.example", "", true, nil},
		{"FROM:<no-at-sign>", "", true, nil},
		{"FROM:<a@>", "", true, nil},
		{"FROM:<@b.example>", "", true, nil},
		{"FROM:<unterminated@b.example", "", true, nil},
		{"FROM:<a@bad..domain>", "", true, nil},
	}
	for _, tc := range cases {
		mailbox, params, err := ParseMailArg(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMailArg(%q) succeeded with %q", tc.in, mailbox)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMailArg(%q): %v", tc.in, err)
			continue
		}
		if mailbox != tc.mailbox {
			t.Errorf("ParseMailArg(%q) = %q, want %q", tc.in, mailbox, tc.mailbox)
		}
		for k, v := range tc.params {
			if params[k] != v {
				t.Errorf("ParseMailArg(%q) params[%s] = %q, want %q", tc.in, k, params[k], v)
			}
		}
	}
}

func TestParseRcptArg(t *testing.T) {
	mailbox, _, err := ParseRcptArg("TO:<postmaster@foo.net>")
	if err != nil || mailbox != "postmaster@foo.net" {
		t.Fatalf("ParseRcptArg = %q, %v", mailbox, err)
	}
	if _, _, err := ParseRcptArg("TO:<>"); err == nil {
		t.Fatal("empty forward path accepted")
	}
	if _, _, err := ParseRcptArg("FROM:<a@b.example>"); err == nil {
		t.Fatal("FROM keyword accepted for RCPT")
	}
}

// TestParsePathArgAllocs pins the RCPT and MAIL path parsers at zero
// allocations for an accepted mailbox without parameters: they run once
// per pipelined command on the server's hot path.
func TestParsePathArgAllocs(t *testing.T) {
	rcpt := testing.AllocsPerRun(100, func() {
		if mb, _, err := ParseRcptArg("TO:<u0.1@dest.example>"); err != nil || mb != "u0.1@dest.example" {
			t.Fatalf("ParseRcptArg = %q, %v", mb, err)
		}
	})
	mail := testing.AllocsPerRun(100, func() {
		if mb, _, err := ParseMailArg("FROM:<c1@corp1.example>"); err != nil || mb != "c1@corp1.example" {
			t.Fatalf("ParseMailArg = %q, %v", mb, err)
		}
	})
	if rcpt != 0 || mail != 0 {
		t.Errorf("ParseRcptArg allocates %.1f/op, ParseMailArg %.1f/op; want 0", rcpt, mail)
	}
}

func TestPathTooLong(t *testing.T) {
	long := strings.Repeat("a", MaxPathLength) + "@example.org"
	if _, _, err := ParseMailArg("FROM:<" + long + ">"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v, want ErrBadPath", err)
	}
}

func TestDomainOf(t *testing.T) {
	if got := DomainOf("User@Foo.NET"); got != "foo.net" {
		t.Errorf("DomainOf = %q", got)
	}
	if got := DomainOf("no-at"); got != "" {
		t.Errorf("DomainOf(no-at) = %q", got)
	}
}

func TestDotReaderBasic(t *testing.T) {
	in := "line one\r\nline two\r\n.\r\nNEXT COMMAND\r\n"
	br := bufio.NewReader(strings.NewReader(in))
	d := NewDotReader(br, 0)
	data, err := d.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(data) != "line one\r\nline two\r\n" {
		t.Fatalf("data = %q", data)
	}
	// The terminator must be consumed, leaving the next command.
	rest, _ := ReadCommandLineAppend(br, nil)
	if string(rest) != "NEXT COMMAND" {
		t.Fatalf("rest = %q", rest)
	}
}

func TestDotReaderUnstuffing(t *testing.T) {
	in := "..leading dot\r\n...two dots\r\n.\r\n"
	d := NewDotReader(bufio.NewReader(strings.NewReader(in)), 0)
	data, err := d.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := ".leading dot\r\n..two dots\r\n"
	if string(data) != want {
		t.Fatalf("data = %q, want %q", data, want)
	}
}

func TestDotReaderSizeLimit(t *testing.T) {
	in := strings.Repeat("0123456789\r\n", 100) + ".\r\nQUIT\r\n"
	br := bufio.NewReader(strings.NewReader(in))
	d := NewDotReader(br, 50)
	_, err := d.ReadAll()
	if !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}
	if !d.TooBig() {
		t.Fatal("TooBig() = false")
	}
	// Oversized payloads are still drained to the terminator.
	rest, _ := ReadCommandLineAppend(br, nil)
	if string(rest) != "QUIT" {
		t.Fatalf("rest = %q", rest)
	}
}

func TestDotReaderEOFMidMessage(t *testing.T) {
	d := NewDotReader(bufio.NewReader(strings.NewReader("no terminator\r\n")), 0)
	if _, err := d.ReadAll(); err == nil {
		t.Fatal("ReadAll succeeded without terminator")
	}
}

func TestWriteDotStuffed(t *testing.T) {
	var buf bytes.Buffer
	err := WriteDotStuffed(&buf, []byte("hello\r\n.starts with dot\r\nworld"))
	if err != nil {
		t.Fatal(err)
	}
	want := "hello\r\n..starts with dot\r\nworld\r\n.\r\n"
	if buf.String() != want {
		t.Fatalf("stuffed = %q, want %q", buf.String(), want)
	}
}

func TestWriteDotStuffedNormalizesLF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDotStuffed(&buf, []byte("a\nb\n")); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a\r\nb\r\n.\r\n" {
		t.Fatalf("stuffed = %q", buf.String())
	}
}

// Property: WriteDotStuffed and DotReader are inverse for CRLF-normalized
// payloads without oversized lines.
func TestDotStuffingRoundTrip(t *testing.T) {
	f := func(lines []string) bool {
		var payload strings.Builder
		for _, l := range lines {
			clean := strings.Map(func(r rune) rune {
				if r == '\r' || r == '\n' {
					return 'x'
				}
				return r
			}, l)
			if len(clean) > 900 {
				clean = clean[:900]
			}
			payload.WriteString(clean)
			payload.WriteString("\r\n")
		}
		var wire bytes.Buffer
		if err := WriteDotStuffed(&wire, []byte(payload.String())); err != nil {
			return false
		}
		d := NewDotReader(bufio.NewReader(&wire), 0)
		got, err := d.ReadAll()
		if err != nil {
			return false
		}
		return string(got) == payload.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
