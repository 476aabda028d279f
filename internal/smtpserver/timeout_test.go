package smtpserver

import (
	"bufio"
	"net"
	netsmtp "net/smtp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/smtpproto"
)

func TestReadTimeoutDisconnectsIdleClient(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Hostname: "timeout.test", ReadTimeout: 100 * time.Millisecond})
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("banner: %v", err)
	}
	// Say nothing. The server must drop us once the deadline passes.
	start := time.Now()
	_, err = conn.Read(buf)
	if err == nil {
		// The server may send nothing before closing; a second read
		// must fail.
		_, err = conn.Read(buf)
	}
	if err == nil {
		t.Fatal("idle connection not closed")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("disconnect took %v", elapsed)
	}
}

func TestReadTimeoutRefreshedPerCommand(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Hostname: "timeout.test", ReadTimeout: 300 * time.Millisecond})
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := readReply(br); err != nil {
		t.Fatal(err)
	}
	// Issue commands with 150 ms gaps: each is under the 300 ms
	// deadline, and the deadline must be re-armed every time.
	for i, cmd := range []string{"HELO a.example", "NOOP", "NOOP", "NOOP"} {
		time.Sleep(150 * time.Millisecond)
		if _, err := conn.Write([]byte(cmd + "\r\n")); err != nil {
			t.Fatalf("cmd %d: %v", i, err)
		}
		if _, err := readReply(br); err != nil {
			t.Fatalf("reply %d: %v (deadline not refreshed?)", i, err)
		}
	}
}

func TestNoTimeoutByDefault(t *testing.T) {
	cfg := Config{Hostname: "x"}
	srv := New(cfg)
	if srv.cfg.ReadTimeout != 0 {
		t.Fatalf("default ReadTimeout = %v, want 0 (virtual-time safe)", srv.cfg.ReadTimeout)
	}
}

func TestStampReceivedHeader(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []byte
	srv := New(Config{
		Hostname:      "mx.stamp.test",
		StampReceived: true,
		Hooks: Hooks{OnMessage: func(e *Envelope) *smtpproto.Reply {
			mu.Lock()
			defer mu.Unlock()
			got = e.Data
			return nil
		}},
	})
	go srv.Serve(l)
	defer srv.Close()

	if err := netsmtp.SendMail(l.Addr().String(), nil, "a@b.example",
		[]string{"u@mx.stamp.test"}, []byte("Subject: s\r\n\r\nbody\r\n")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	text := string(got)
	if !strings.HasPrefix(text, "Received: from ") {
		t.Fatalf("no Received header:\n%s", text)
	}
	for _, want := range []string{"by mx.stamp.test", "with SMTP", "127.0.0.1", "Subject: s"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Received stamp missing %q:\n%s", want, text)
		}
	}
}
