package dnsresolver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnsmsg"
)

// ErrTruncated reports an answer with the TC bit set. A query without
// EDNS0, as every query here is, caps a UDP answer at 512 bytes, so a
// truncated answer is missing records and must not be read as complete
// (an SPF record cut off would read as "no SPF record"). Resolver.Query
// does not cache it.
var ErrTruncated = errors.New("dnsresolver: truncated answer")

const (
	// maxIdleSockets caps the free list; a socket handed back to a full
	// list is closed.
	maxIdleSockets = 32
	// socketAnswerCap retires a socket after this many answers, so the
	// source port an off-path forger must guess keeps moving.
	socketAnswerCap = 64
	// udpRecvSize is each socket's receive buffer.
	udpRecvSize = 4096
)

// UDPTransport sends queries over connected UDP sockets it keeps on a
// bounded free list. Each query goes out under a fresh random 16-bit
// wire ID, and only a datagram from the server carrying that ID and the
// query's question is taken as the answer; anything else is discarded
// and the read goes on until the deadline. A socket returns to the list
// only after it produced its answer (so no query of its own is still
// outstanding), is closed after any send or receive error or a timeout,
// and is retired after socketAnswerCap answers. See DESIGN.md, "Bypass
// chain → Performance".
type UDPTransport struct {
	addr    string
	timeout time.Duration

	mu     sync.Mutex
	idle   []*udpSocket
	closed bool

	opened    atomic.Uint64
	open      atomic.Int64
	discarded atomic.Uint64
	failed    atomic.Uint64
}

// udpSocket is one connected socket with its receive buffer. It belongs
// to one exchange at a time. dnsmsg.Unpack copies out everything the
// returned message keeps, so the next exchange may reuse buf.
type udpSocket struct {
	conn    net.Conn
	answers int
	buf     [udpRecvSize]byte
}

// UDP returns a Transport that sends queries over UDP to addr
// ("host:port") with the given per-query timeout, reusing its sockets.
// Close releases the idle ones.
func UDP(addr string, timeout time.Duration) *UDPTransport {
	return &UDPTransport{addr: addr, timeout: timeout}
}

// UDPStats are a UDPTransport's cumulative counters and its socket
// count. The Resolver over it counts the queries (Resolver.Stats).
type UDPStats struct {
	// SocketsOpened counts sockets dialed.
	SocketsOpened uint64
	// SocketsOpen is the sockets open now, idle or in use.
	SocketsOpen int64
	// Discarded counts datagrams read and dropped: an ID or question
	// that does not match the query, or bytes that do not decode.
	Discarded uint64
	// Errors counts exchanges that returned an error.
	Errors uint64
}

// Stats reads the transport's counters.
func (t *UDPTransport) Stats() UDPStats {
	return UDPStats{
		SocketsOpened: t.opened.Load(),
		SocketsOpen:   t.open.Load(),
		Discarded:     t.discarded.Load(),
		Errors:        t.failed.Load(),
	}
}

// Exchange implements Transport. The returned message carries the
// caller's ID, not the wire ID.
func (t *UDPTransport) Exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	resp, err := t.exchange(q)
	if err != nil {
		t.failed.Add(1)
	}
	return resp, err
}

func (t *UDPTransport) exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, fmt.Errorf("dnsresolver: pack: %w", err)
	}
	id := uint16(rand.Uint32())
	binary.BigEndian.PutUint16(wire, id)
	s, err := t.get()
	if err != nil {
		return nil, err
	}
	resp, err := t.roundTrip(s, wire, id, q.Questions)
	if err != nil {
		t.closeSocket(s)
		return nil, err
	}
	t.put(s)
	resp.Header.ID = q.Header.ID
	if resp.Header.Truncated {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, q.Questions)
	}
	return resp, nil
}

// roundTrip sends wire on s and reads until a datagram answers it.
func (t *UDPTransport) roundTrip(s *udpSocket, wire []byte, id uint16, questions []dnsmsg.Question) (*dnsmsg.Message, error) {
	if t.timeout > 0 {
		if err := s.conn.SetDeadline(time.Now().Add(t.timeout)); err != nil {
			return nil, err
		}
	}
	if _, err := s.conn.Write(wire); err != nil {
		return nil, fmt.Errorf("dnsresolver: send: %w", err)
	}
	for {
		n, err := s.conn.Read(s.buf[:])
		if err != nil {
			return nil, fmt.Errorf("dnsresolver: receive: %w", err)
		}
		// The ID is checked on the raw bytes, so another query's answer
		// costs no decode.
		if n < 2 || binary.BigEndian.Uint16(s.buf[:2]) != id {
			t.discarded.Add(1)
			continue
		}
		resp, err := dnsmsg.Unpack(s.buf[:n])
		if err != nil || !resp.Header.Response || !sameQuestions(resp.Questions, questions) {
			t.discarded.Add(1)
			continue
		}
		return resp, nil
	}
}

// get takes an idle socket, or dials one when the list is empty.
func (t *UDPTransport) get() (*udpSocket, error) {
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		s := t.idle[n-1]
		t.idle[n-1] = nil
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return s, nil
	}
	t.mu.Unlock()
	conn, err := net.Dial("udp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("dnsresolver: dial %s: %w", t.addr, err)
	}
	t.opened.Add(1)
	t.open.Add(1)
	return &udpSocket{conn: conn}, nil
}

// put hands back a socket that has just produced its answer: onto the
// free list, or closed when it reached its answer cap, the list is full
// or the transport is closed.
func (t *UDPTransport) put(s *udpSocket) {
	s.answers++
	if s.answers < socketAnswerCap {
		t.mu.Lock()
		if !t.closed && len(t.idle) < maxIdleSockets {
			t.idle = append(t.idle, s)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	t.closeSocket(s)
}

func (t *UDPTransport) closeSocket(s *udpSocket) {
	s.conn.Close()
	t.open.Add(-1)
}

// Close closes the idle sockets. A socket in use is closed when its
// exchange hands it back; a later Exchange still works, on a socket it
// closes afterwards.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.closed = nil, true
	t.mu.Unlock()
	for _, s := range idle {
		t.closeSocket(s)
	}
	return nil
}

// sameQuestions reports whether an answer echoes the query's question
// section: the same names (compared as DNS names, without case or a
// trailing dot), types and classes.
func sameQuestions(got, want []dnsmsg.Question) bool {
	if len(got) != len(want) {
		return false
	}
	for i, q := range want {
		g := got[i]
		if g.Type != q.Type || g.Class != q.Class ||
			!strings.EqualFold(strings.TrimSuffix(g.Name, "."), strings.TrimSuffix(q.Name, ".")) {
			return false
		}
	}
	return true
}
