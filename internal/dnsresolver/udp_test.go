package dnsresolver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dnsserver"
	"repro/internal/simtime"
)

// peer is a hand-written UDP DNS server on loopback: for each datagram
// it calls answer with the decoded query, its source and a function
// that sends a datagram anywhere, then sends back whatever datagrams
// answer returns, in order, to the query's source.
func peer(t *testing.T, answer func(q *dnsmsg.Message, from net.Addr, send func([]byte, net.Addr)) [][]byte) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		pc.Close()
		<-done
	})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnsmsg.Unpack(buf[:n])
			if err != nil {
				continue
			}
			send := func(b []byte, to net.Addr) { pc.WriteTo(b, to) }
			for _, b := range answer(q, from, send) {
				send(b, from)
			}
		}
	}()
	return pc.LocalAddr().String()
}

// aReply answers q with one A record for its question's name.
func aReply(t *testing.T, q *dnsmsg.Message, ip string) *dnsmsg.Message {
	t.Helper()
	r := q.Reply()
	r.Answers = []dnsmsg.RR{{Name: q.Questions[0].Name, Type: dnsmsg.TypeA, Class: dnsmsg.ClassINET, TTL: 60,
		Data: dnsmsg.MustIPv4(ip)}}
	return r
}

func pack(t *testing.T, m *dnsmsg.Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lookupA resolves name through tr without a cache and returns the
// first address.
func lookupA(t *testing.T, tr Transport, name string) (string, error) {
	t.Helper()
	r := New(tr, simtime.Real{})
	r.DisableCache = true
	addrs, err := r.LookupA(name)
	if err != nil {
		return "", err
	}
	return addrs[0], nil
}

// TestUDPWrongIDThenRight: a datagram carrying another ID arrives ahead
// of the answer; the transport discards it and returns the answer.
func TestUDPWrongIDThenRight(t *testing.T) {
	addr := peer(t, func(q *dnsmsg.Message, _ net.Addr, _ func([]byte, net.Addr)) [][]byte {
		forged := aReply(t, q, "6.6.6.6")
		forged.Header.ID++
		return [][]byte{pack(t, forged), pack(t, aReply(t, q, "1.2.3.4"))}
	})
	tr := UDP(addr, 2*time.Second)
	defer tr.Close()
	got, err := lookupA(t, tr, "host.example")
	if err != nil || got != "1.2.3.4" {
		t.Fatalf("LookupA = %q, %v; want 1.2.3.4", got, err)
	}
	if s := tr.Stats(); s.Discarded != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 discarded, 0 errors", s)
	}
}

// TestUDPQuestionMismatch: a datagram with the query's ID but another
// name, type or class in its question is not the answer.
func TestUDPQuestionMismatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(*dnsmsg.Question)
	}{
		{"name", func(q *dnsmsg.Question) { q.Name = "other.example" }},
		{"type", func(q *dnsmsg.Question) { q.Type = dnsmsg.TypeMX }},
		{"class", func(q *dnsmsg.Question) { q.Class = dnsmsg.ClassANY }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := peer(t, func(q *dnsmsg.Message, _ net.Addr, _ func([]byte, net.Addr)) [][]byte {
				forged := aReply(t, q, "6.6.6.6")
				tc.change(&forged.Questions[0])
				return [][]byte{pack(t, forged), pack(t, aReply(t, q, "1.2.3.4"))}
			})
			tr := UDP(addr, 2*time.Second)
			defer tr.Close()
			got, err := lookupA(t, tr, "host.example")
			if err != nil || got != "1.2.3.4" {
				t.Fatalf("LookupA = %q, %v; want 1.2.3.4", got, err)
			}
			if d := tr.Stats().Discarded; d != 1 {
				t.Fatalf("discarded = %d, want 1", d)
			}
		})
	}
}

// TestUDPGarbageThenAnswer: bytes that do not decode, even under the
// query's ID, are discarded and the read goes on.
func TestUDPGarbageThenAnswer(t *testing.T) {
	addr := peer(t, func(q *dnsmsg.Message, _ net.Addr, _ func([]byte, net.Addr)) [][]byte {
		ok := pack(t, aReply(t, q, "1.2.3.4"))
		return [][]byte{{0x01}, append(ok[:2:2], 0xff, 0xff, 0xff), ok}
	})
	tr := UDP(addr, 2*time.Second)
	defer tr.Close()
	got, err := lookupA(t, tr, "host.example")
	if err != nil || got != "1.2.3.4" {
		t.Fatalf("LookupA = %q, %v; want 1.2.3.4", got, err)
	}
	if d := tr.Stats().Discarded; d != 2 {
		t.Fatalf("discarded = %d, want 2", d)
	}
}

// TestUDPRandomIDs: the IDs on the wire are not the caller's and do not
// count up, and each answer comes back under the caller's ID.
func TestUDPRandomIDs(t *testing.T) {
	var mu sync.Mutex
	var wire []uint16
	addr := peer(t, func(q *dnsmsg.Message, _ net.Addr, _ func([]byte, net.Addr)) [][]byte {
		mu.Lock()
		wire = append(wire, q.Header.ID)
		mu.Unlock()
		return [][]byte{pack(t, aReply(t, q, "1.2.3.4"))}
	})
	tr := UDP(addr, 2*time.Second)
	defer tr.Close()
	const n = 256
	for i := 0; i < n; i++ {
		id := uint16(1000 + i)
		resp, err := tr.Exchange(dnsmsg.NewQuery(id, "host.example", dnsmsg.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != id {
			t.Fatalf("answer %d came back under ID %d, want the caller's %d", i, resp.Header.ID, id)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	steps, same, distinct := 0, 0, map[uint16]bool{}
	for i, id := range wire {
		distinct[id] = true
		if id == uint16(1000+i) {
			same++
		}
		if i > 0 && id == wire[i-1]+1 {
			steps++
		}
	}
	// Random 16-bit IDs: about 256/65536 of each count, and about half
	// a collision in 256 draws.
	if steps > 4 || same > 4 || len(distinct) < n-8 {
		t.Fatalf("%d wire IDs: %d count up by one, %d equal the caller's, %d distinct; want random IDs",
			len(wire), steps, same, len(distinct))
	}
}

// TestUDPSocketRetiredAtAnswerCap: sequential exchanges share one
// socket until it has given socketAnswerCap answers; then it is closed
// and the next exchange opens another.
func TestUDPSocketRetiredAtAnswerCap(t *testing.T) {
	srv := buildServer(t)
	addr, err := srv.ListenAndServeUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := UDP(addr.String(), 2*time.Second)
	const n = 2*socketAnswerCap + 1
	for i := 0; i < n; i++ {
		if _, err := lookupA(t, tr, "smtp.foo.net"); err != nil {
			t.Fatal(err)
		}
	}
	if s := tr.Stats(); s.SocketsOpened != 3 || s.SocketsOpen != 1 {
		t.Fatalf("after %d exchanges: %+v, want 3 opened, 1 open", n, s)
	}
	tr.Close()
	if s := tr.Stats(); s.SocketsOpen != 0 {
		t.Fatalf("after Close: %d sockets open", s.SocketsOpen)
	}
}

// TestUDPTimedOutSocketNotReused: the peer holds back its answer to
// the first query until the second arrives, then sends both answers to
// where each query came from. The timed-out socket was closed, so the
// late answer reaches nothing: the second query, for the same name,
// goes out on a new socket and reads its own answer.
func TestUDPTimedOutSocketNotReused(t *testing.T) {
	var held *dnsmsg.Message
	var heldFrom net.Addr
	addr := peer(t, func(q *dnsmsg.Message, from net.Addr, send func([]byte, net.Addr)) [][]byte {
		if held == nil {
			held, heldFrom = q, from
			return nil
		}
		send(pack(t, aReply(t, held, "6.6.6.6")), heldFrom)
		return [][]byte{pack(t, aReply(t, q, "1.2.3.4"))}
	})
	tr := UDP(addr, 200*time.Millisecond)
	defer tr.Close()
	if _, err := lookupA(t, tr, "slow.example"); err == nil {
		t.Fatal("the held query did not time out")
	}
	if s := tr.Stats(); s.SocketsOpen != 0 || s.Errors != 1 {
		t.Fatalf("after the timeout: %+v, want 0 open, 1 error", s)
	}
	got, err := lookupA(t, tr, "slow.example")
	if err != nil || got != "1.2.3.4" {
		t.Fatalf("second LookupA = %q, %v; want 1.2.3.4", got, err)
	}
	if s := tr.Stats(); s.SocketsOpened != 2 {
		t.Fatalf("after the second query: %+v, want 2 opened", s)
	}
}

// TestUDPConcurrentExchanges: 8 goroutines × 200 exchanges of distinct
// names through one transport each get their own answer.
func TestUDPConcurrentExchanges(t *testing.T) {
	const workers, each = 8, 200
	z := dnsserver.NewZone("pool.example")
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			z.MustAdd(dnsmsg.RR{Name: fmt.Sprintf("w%d-%d.pool.example", w, i), Type: dnsmsg.TypeA, TTL: 60,
				Data: dnsmsg.MustIPv4(fmt.Sprintf("10.%d.%d.%d", w, i>>8, i&0xff))})
		}
	}
	srv := dnsserver.New()
	srv.AddZone(z)
	addr, err := srv.ListenAndServeUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := UDP(addr.String(), 5*time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				got, err := lookupA(t, tr, fmt.Sprintf("w%d-%d.pool.example", w, i))
				if want := fmt.Sprintf("10.%d.%d.%d", w, i>>8, i&0xff); err != nil || got != want {
					t.Errorf("worker %d, exchange %d: %q, %v; want %s", w, i, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := tr.Stats(); s.Errors != 0 || s.Discarded != 0 || s.SocketsOpen > workers {
		t.Fatalf("stats = %+v, want no errors or discards and at most %d open", s, workers)
	}
	tr.Close()
	if s := tr.Stats(); s.SocketsOpen != 0 {
		t.Fatalf("after Close: %d sockets open", s.SocketsOpen)
	}
}

// TestUDPTruncatedIsError: an answer with TC=1 is ErrTruncated, which
// the resolver does not cache, and the socket that read it is reused.
func TestUDPTruncatedIsError(t *testing.T) {
	addr := peer(t, func(q *dnsmsg.Message, _ net.Addr, _ func([]byte, net.Addr)) [][]byte {
		r := q.Reply()
		r.Header.Truncated = true
		return [][]byte{pack(t, r)}
	})
	tr := UDP(addr, 2*time.Second)
	defer tr.Close()
	r := New(tr, simtime.Real{})
	for i := 0; i < 2; i++ {
		if _, err := r.Query("spf.example", dnsmsg.TypeTXT); !errors.Is(err, ErrTruncated) {
			t.Fatalf("query %d: err = %v, want ErrTruncated", i, err)
		}
	}
	if q, hits := r.Stats(); q != 2 || hits != 0 {
		t.Fatalf("resolver stats = (%d queries, %d hits), want (2, 0): a truncated answer is not cached", q, hits)
	}
	if s := tr.Stats(); s.SocketsOpened != 1 || s.Errors != 2 {
		t.Fatalf("transport stats = %+v, want 1 opened, 2 errors", s)
	}
}

// BenchmarkUDPExchange is one A query to a loopback dnsserver through
// the pooled transport, the server's work included. It reports the
// sockets opened per exchange (1/socketAnswerCap when pooling works,
// 1 when every exchange dials).
func BenchmarkUDPExchange(b *testing.B) {
	srv := dnsserver.New()
	z := dnsserver.NewZone("bench.example")
	z.MustAdd(dnsmsg.RR{Name: "host.bench.example", Type: dnsmsg.TypeA, TTL: 60, Data: dnsmsg.MustIPv4("192.0.2.1")})
	srv.AddZone(z)
	addr, err := srv.ListenAndServeUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	tr := UDP(addr.String(), 5*time.Second)
	defer tr.Close()
	q := dnsmsg.NewQuery(1, "host.bench.example", dnsmsg.TypeA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Exchange(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Stats().SocketsOpened)/float64(b.N), "sockets/op")
}
