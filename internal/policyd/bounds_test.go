package policyd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"strings"
	"testing"
	"time"
)

// endlessReader hands out next(0), next(1), ... forever and counts the
// bytes read: a peer that never stops sending.
type endlessReader struct {
	next    func(i int) string
	i       int
	pending string
	read    int
}

func (r *endlessReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if r.pending == "" {
			r.pending = r.next(r.i)
			r.i++
		}
		c := copy(p[n:], r.pending)
		r.pending = r.pending[c:]
		n += c
	}
	r.read += n
	return n, nil
}

// TestParseRequestRefusesLongLine: a line at maxRequestLine parses; a
// line that never ends is refused once it passes the bound, having read
// at most one reader buffer more, and the server drops the connection.
func TestParseRequestRefusesLongLine(t *testing.T) {
	value := strings.Repeat("a", maxRequestLine-len("sender=\n"))
	req, err := ParseRequest(bufio.NewReader(strings.NewReader("sender=" + value + "\n\n")))
	if err != nil || req.Sender() != value {
		t.Fatalf("line at the bound: %d-byte sender, %v", len(req.Sender()), err)
	}

	src := &endlessReader{next: func(int) string { return strings.Repeat("a", 1000) }}
	br := bufio.NewReader(src)
	if _, err := ParseRequest(br); !errors.Is(err, errLineTooLong) {
		t.Fatalf("endless line: err = %v, want %v", err, errLineTooLong)
	}
	if limit := maxRequestLine + br.Size(); src.read > limit {
		t.Fatalf("read %d bytes before refusing, want <= %d", src.read, limit)
	}

	s, _ := newPolicyServer(time.Second)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		s.serveConn(server)
		close(done)
	}()
	defer func() {
		client.Close()
		<-done
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if n, err := client.Write([]byte(strings.Repeat("a", 4*maxRequestLine))); err == nil {
		t.Fatalf("server read all %d bytes of an over-long line", n)
	}
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the refusal: %v, want EOF (connection dropped)", err)
	}
}

// TestParseRequestRefusesTooManyAttrs: maxRequestAttrs attributes
// parse; a request that never ends its attribute list is refused at
// the next one.
func TestParseRequestRefusesTooManyAttrs(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < maxRequestAttrs; i++ {
		fmt.Fprintf(&sb, "a%d=v\n", i)
	}
	req, err := ParseRequest(bufio.NewReader(strings.NewReader(sb.String() + "\n")))
	if err != nil || len(req) != maxRequestAttrs {
		t.Fatalf("%d attributes at the bound, %v", len(req), err)
	}

	src := &endlessReader{next: func(i int) string { return fmt.Sprintf("a%d=v\n", i) }}
	br := bufio.NewReader(src)
	if _, err := ParseRequest(br); !errors.Is(err, errTooManyAttrs) {
		t.Fatalf("endless request: err = %v, want %v", err, errTooManyAttrs)
	}
	if limit := (maxRequestAttrs+1)*len("a1000=v\n") + br.Size(); src.read > limit {
		t.Fatalf("read %d bytes before refusing, want <= %d", src.read, limit)
	}
}

// FuzzParseRequest: the request parser never panics, and an accepted
// request stays within both bounds and, written back as name=value
// lines, parses to the same map.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("request=smtpd_access_policy\nprotocol_state=RCPT\nclient_address=203.0.113.9\n" +
		"sender=bot@spam.example\nrecipient=user@foo.net\n\n"))
	f.Add([]byte("\n\r\n Client_Address = 1.2.3.4 \r\n=\nx==y\nx=z\n\n"))
	f.Add([]byte("N\xc8\xba=\xff\n\n"))
	f.Add([]byte("no equals sign\n\n"))
	f.Add([]byte("sender=a@b.example"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, in []byte) {
		req, err := ParseRequest(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			return
		}
		if len(req) > maxRequestAttrs {
			t.Fatalf("accepted %d attributes, bound %d", len(req), maxRequestAttrs)
		}
		var sb strings.Builder
		for name, value := range req {
			line := name + "=" + value + "\n"
			if len(line) > maxRequestLine {
				t.Fatalf("accepted a %d-byte attribute line, bound %d", len(line), maxRequestLine)
			}
			sb.WriteString(line)
		}
		sb.WriteString("\n")
		again, err := ParseRequest(bufio.NewReader(strings.NewReader(sb.String())))
		if err != nil || !maps.Equal(again, req) {
			t.Fatalf("written back as %q: %v, %v; want %v", sb.String(), again, err, req)
		}
	})
}
