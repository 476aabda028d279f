package smtpserver

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/smtpproto"
	"repro/internal/trace"
)

// scriptConn is a net.Conn that replays a pre-canned client script and
// discards everything the server writes. It lets benchmarks run
// serveConn alone, so allocs/op counts the *server* wire path only —
// no real socket, no client goroutine, no scheduler noise.
type scriptConn struct {
	r bytes.Reader
	n int64 // bytes written by the server (discarded)
}

func (c *scriptConn) Reset(script []byte) { c.r.Reset(script); c.n = 0 }

func (c *scriptConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *scriptConn) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (c *scriptConn) Close() error { return nil }

func (c *scriptConn) LocalAddr() net.Addr  { return scriptAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr { return scriptAddr{} }

func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type scriptAddr struct{}

func (scriptAddr) Network() string { return "tcp" }
func (scriptAddr) String() string  { return "192.0.2.77:40001" }

var _ net.Conn = (*scriptConn)(nil)

// wireScript renders a client dialog as the byte stream the server reads.
func wireScript(lines ...string) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\r\n")
	}
	return b.Bytes()
}

// BenchmarkServeConnSession is the wire-path allocation contract: one
// full SMTP session (connect, EHLO, MAIL, RCPT, DATA with a small
// payload, QUIT) handled end to end by serveConn. allocs/op is
// allocs/session for the server side alone.
func BenchmarkServeConnSession(b *testing.B) {
	srv := New(Config{Hostname: "bench.example", StampReceived: true})
	script := wireScript(
		"EHLO client.example",
		"MAIL FROM:<a@b.example>",
		"RCPT TO:<u@foo.net>",
		"DATA",
		"Subject: hi",
		"",
		"body line one",
		".",
		"QUIT",
	)
	conn := &scriptConn{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Reset(script)
		srv.serveConn(conn)
	}
	if conn.n == 0 {
		b.Fatal("server wrote nothing")
	}
}

// BenchmarkServeConnReused measures the steady-state transaction cost on
// a long-lived connection: one connect + EHLO, then 64 MAIL/RCPT/RSET
// transactions (the greylistd hot shape — most spam sessions never reach
// DATA). allocs/op is per *transaction*, the unit a client that pools
// its connections counts as a session.
func BenchmarkServeConnReused(b *testing.B) {
	srv := New(Config{Hostname: "bench.example"})
	const txns = 64
	lines := []string{"EHLO client.example"}
	for i := 0; i < txns; i++ {
		lines = append(lines,
			"MAIL FROM:<a@b.example>",
			"RCPT TO:<u@foo.net>",
			"RSET",
		)
	}
	lines = append(lines, "QUIT")
	script := wireScript(lines...)
	conn := &scriptConn{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += txns {
		conn.Reset(script)
		srv.serveConn(conn)
	}
	if conn.n == 0 {
		b.Fatal("server wrote nothing")
	}
}

// BenchmarkServeConnPipelinedRcpt drives the batch path: EHLO, then
// transactions of MAIL + 16 pipelined RCPTs + RSET arriving in one
// write, decided by OnRcptBatch. allocs/op is per transaction.
func BenchmarkServeConnPipelinedRcpt(b *testing.B) {
	srv := New(Config{
		Hostname: "bench.example",
		Hooks: Hooks{
			OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
				return nil // accept all
			},
		},
	})
	const txns = 16
	const rcpts = 16
	lines := []string{"EHLO client.example"}
	for i := 0; i < txns; i++ {
		lines = append(lines, "MAIL FROM:<a@b.example>")
		for j := 0; j < rcpts; j++ {
			lines = append(lines, "RCPT TO:<u@foo.net>")
		}
		lines = append(lines, "RSET")
	}
	lines = append(lines, "QUIT")
	script := wireScript(lines...)
	conn := &scriptConn{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += txns {
		conn.Reset(script)
		srv.serveConn(conn)
	}
	if conn.n == 0 {
		b.Fatal("server wrote nothing")
	}
}

// BenchmarkServeConnPipelinedRcptTraced is BenchmarkServeConnPipelinedRcpt
// on a traced session, wired as greylistd wires it: a session tracer
// plus no-op traced and batch RCPT hooks. Bursts still batch, and the
// sampled session trace records one verb event per RCPT. allocs/op is
// per transaction.
func BenchmarkServeConnPipelinedRcptTraced(b *testing.B) {
	srv := New(Config{
		Hostname: "bench.example",
		Tracer:   trace.New(1024),
		Hooks: Hooks{
			OnRcptTraced: func(tr *trace.Trace, clientIP, sender, rcpt string) *smtpproto.Reply {
				return nil
			},
			OnRcptBatch: func(clientIP, sender string, rcpts []string) []*smtpproto.Reply {
				return nil // accept all
			},
		},
	})
	const txns = 16
	const rcpts = 16
	lines := []string{"EHLO client.example"}
	for i := 0; i < txns; i++ {
		lines = append(lines, "MAIL FROM:<a@b.example>")
		for j := 0; j < rcpts; j++ {
			lines = append(lines, "RCPT TO:<u@foo.net>")
		}
		lines = append(lines, "RSET")
	}
	lines = append(lines, "QUIT")
	script := wireScript(lines...)
	conn := &scriptConn{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += txns {
		conn.Reset(script)
		srv.serveConn(conn)
	}
	if conn.n == 0 {
		b.Fatal("server wrote nothing")
	}
}
