// Package netsim provides an in-memory Internet for the experiments: hosts
// identified by IPv4 addresses, TCP-like listeners bound to ip:port, and
// dialing between them. Connections are synchronous net.Pipe pairs wrapped
// so that net.Conn.RemoteAddr reports the dialer's simulated IP — which is
// what the greylisting triplet and the SMTP server's logging key on.
//
// The simulation models the failure modes the paper's measurements depend
// on: a host with no listener on a port refuses connections (this is how a
// nolisted primary MX behaves: valid A record, port 25 closed), and a host
// marked down is unreachable (a malfunctioning server, indistinguishable
// from nolisting in scan data — exactly the ambiguity Section IV-A's
// two-scan methodology resolves).
//
// State is sharded by host hash: every
// listener and down-flag of one host lives in the shard of that host, so
// the banner-grab workers and the parallel domain scanners of a
// paper-scale adoption study probe different hosts without contending on
// a process-wide lock. Dial/refusal counters are atomics, so Stats reads
// never contend with dials either.
package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Sentinel errors mirroring the failure modes of real TCP dialing.
var (
	// ErrConnRefused reports that the target host exists but nothing
	// listens on the port (RST in real TCP).
	ErrConnRefused = errors.New("netsim: connection refused")
	// ErrHostUnreachable reports that the target host is down.
	ErrHostUnreachable = errors.New("netsim: host unreachable")
	// ErrListenerClosed reports Accept on a closed listener.
	ErrListenerClosed = errors.New("netsim: listener closed")
	// ErrAddrInUse reports a second Listen on an already-bound address.
	ErrAddrInUse = errors.New("netsim: address already in use")
)

// shardCount is the number of host-hash shards. A power of two well above
// typical GOMAXPROCS keeps the probability of two busy workers colliding
// on one shard's lock low while the per-Network footprint stays small.
const shardCount = 64

// shard holds the listeners and down-flags of the hosts that hash to it.
// Read-mostly operations (Dial, Listening, HostDown) take the read lock.
type shard struct {
	mu        sync.RWMutex
	listeners map[string]*Listener // "ip:port" -> listener
	down      map[string]bool      // "ip" -> host marked down
}

// DownOracle derives host downness instead of materializing it. While
// one is installed (SetDownOracle), a host is unreachable when either
// its SetHostDown flag or the oracle says so — letting a paper-scale
// scan window impose millions of transient failures without writing a
// single down-map entry. Implementations must be safe for concurrent
// use and fast: the oracle sits on the dial and probe hot paths.
type DownOracle interface {
	// HostDown reports whether the host with the given IP is down.
	HostDown(ip string) bool
	// HostDownBytes is HostDown over a byte-slice IP, so probe loops
	// holding a scratch buffer never convert it to a string.
	HostDownBytes(ip []byte) bool
}

// Network is the in-memory Internet. The zero value is not usable; create
// one with New. All methods are safe for concurrent use.
type Network struct {
	shards  [shardCount]shard
	dials   atomic.Uint64
	refused atomic.Uint64
	oracle  atomic.Pointer[DownOracle]
}

// New returns an empty Network.
func New() *Network {
	n := &Network{}
	for i := range n.shards {
		n.shards[i].listeners = make(map[string]*Listener)
		n.shards[i].down = make(map[string]bool)
	}
	return n
}

// shardOf picks the shard owning host by FNV-1a hash, inlined so no
// hasher is constructed.
func (n *Network) shardOf(host string) *shard {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= prime
	}
	return &n.shards[h%shardCount]
}

// shardOfBytes is shardOf over a byte slice, so probe paths holding a
// scratch buffer never convert it to a string.
func (n *Network) shardOfBytes(host []byte) *shard {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for _, c := range host {
		h ^= uint32(c)
		h *= prime
	}
	return &n.shards[h%shardCount]
}

// splitHost returns the IP part of "ip:port" without allocating, or ""
// for a malformed address. The simulation only ever uses plain
// "ipv4:port" forms, so scanning for the last colon is exact.
func splitHost(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return ""
}

// Listen binds a listener to addr ("ip:port"). It fails if the address is
// already bound.
func (n *Network) Listen(address string) (*Listener, error) {
	host, _, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %q: %w", address, err)
	}
	sh := n.shardOf(host)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.listeners[address]; ok {
		return nil, fmt.Errorf("netsim: listen %q: %w", address, ErrAddrInUse)
	}
	l := &Listener{
		net:    n,
		addr:   Addr(address),
		host:   host,
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	sh.listeners[address] = l
	return l, nil
}

// Dial opens a connection from laddr (the caller's simulated "ip:port",
// typically with an ephemeral port) to raddr. It fails with
// ErrHostUnreachable if the target host is down and ErrConnRefused if no
// listener is bound to raddr.
func (n *Network) Dial(laddr, raddr string) (net.Conn, error) {
	return n.DialTrace(laddr, raddr, nil)
}

// DialTrace is Dial with the caller's trace attached: the dial outcome
// is recorded as a trace event and — when the connection opens — both
// pipe endpoints carry the trace, so the accepting server's session
// records into the same per-attempt trace (trace.FromConn). A nil
// trace makes DialTrace identical to Dial.
func (n *Network) DialTrace(laddr, raddr string, tr *trace.Trace) (net.Conn, error) {
	rhost, _, err := net.SplitHostPort(raddr)
	if err != nil {
		err = fmt.Errorf("netsim: dial %q: %w", raddr, err)
		tr.Dial(raddr, err)
		return nil, err
	}
	n.dials.Add(1)
	sh := n.shardOf(rhost)
	sh.mu.RLock()
	if sh.down[rhost] || n.oracleDown(rhost) {
		sh.mu.RUnlock()
		err = fmt.Errorf("netsim: dial %s: %w", raddr, ErrHostUnreachable)
		tr.Dial(raddr, err)
		return nil, err
	}
	l, ok := sh.listeners[raddr]
	sh.mu.RUnlock()
	if !ok {
		n.refused.Add(1)
		err = fmt.Errorf("netsim: dial %s: %w", raddr, ErrConnRefused)
		tr.Dial(raddr, err)
		return nil, err
	}

	cc, sc := net.Pipe()
	client := &conn{Conn: cc, local: Addr(laddr), remote: Addr(raddr), tr: tr}
	server := &conn{Conn: sc, local: Addr(raddr), remote: Addr(laddr), tr: tr}
	select {
	case l.accept <- server:
		tr.Dial(raddr, nil)
		return client, nil
	case <-l.done:
		cc.Close()
		sc.Close()
		err = fmt.Errorf("netsim: dial %s: %w", raddr, ErrConnRefused)
		tr.Dial(raddr, err)
		return nil, err
	}
}

// SetDownOracle installs (or, with nil, removes) a derived-downness
// oracle. The oracle augments — never replaces — the explicit
// SetHostDown flags.
func (n *Network) SetDownOracle(o DownOracle) {
	if o == nil {
		n.oracle.Store(nil)
		return
	}
	n.oracle.Store(&o)
}

// oracleDown consults the installed oracle, if any, for a string host.
func (n *Network) oracleDown(host string) bool {
	p := n.oracle.Load()
	return p != nil && (*p).HostDown(host)
}

// oracleDownBytes consults the installed oracle for a byte-slice host.
func (n *Network) oracleDownBytes(host []byte) bool {
	p := n.oracle.Load()
	return p != nil && (*p).HostDownBytes(host)
}

// SetHostDown marks every port of the host with the given IP unreachable
// (down=true) or reachable again (down=false). Listeners stay bound; a host
// coming back up resumes accepting.
func (n *Network) SetHostDown(ip string, isDown bool) {
	sh := n.shardOf(ip)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if isDown {
		sh.down[ip] = true
	} else {
		delete(sh.down, ip)
	}
}

// HostDown reports whether the host is currently marked down, either
// explicitly or by the installed oracle.
func (n *Network) HostDown(ip string) bool {
	sh := n.shardOf(ip)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.down[ip] || n.oracleDown(ip)
}

// Listening reports whether any listener is bound to addr and its host is
// up. This is the primitive behind the SMTP banner-grab scanner: a SYN to
// port 25 succeeds exactly when Listening is true.
func (n *Network) Listening(addr string) bool {
	host := splitHost(addr)
	if host == "" {
		return false
	}
	sh := n.shardOf(host)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.down[host] || n.oracleDown(host) {
		return false
	}
	_, ok := sh.listeners[addr]
	return ok
}

// ListeningAddr is Listening over a byte-slice address, for probe loops
// that build "ip:port" in a reused scratch buffer: the map lookups use
// the m[string(b)] form, so a paper-scale banner grab probes without
// allocating a string per target.
func (n *Network) ListeningAddr(addr []byte) bool {
	hostLen := -1
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			hostLen = i
			break
		}
	}
	if hostLen <= 0 {
		return false
	}
	sh := n.shardOfBytes(addr[:hostLen])
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.down[string(addr[:hostLen])] || n.oracleDownBytes(addr[:hostLen]) {
		return false
	}
	_, ok := sh.listeners[string(addr)]
	return ok
}

// Stats reports the total number of dial attempts and how many were
// refused. The counters are atomics; reading them never blocks dialers.
func (n *Network) Stats() (dials, refused uint64) {
	return n.dials.Load(), n.refused.Load()
}

func (n *Network) unbind(addr string, l *Listener) {
	sh := n.shardOf(l.host)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.listeners[addr] == l {
		delete(sh.listeners, addr)
	}
}

// Listener implements net.Listener over the simulated network.
type Listener struct {
	net    *Network
	addr   Addr
	host   string
	accept chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

var _ net.Listener = (*Listener)(nil)

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

// Close implements net.Listener. Closing unbinds the address; subsequent
// dials are refused.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.net.unbind(string(l.addr), l)
	})
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.addr }

// Addr is a simulated network address ("ip:port").
type Addr string

var _ net.Addr = Addr("")

// Network implements net.Addr.
func (Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string { return string(a) }

// Host returns the IP part of the address, or "" if malformed.
func (a Addr) Host() string {
	h, _, err := net.SplitHostPort(string(a))
	if err != nil {
		return ""
	}
	return h
}

// conn wraps a net.Pipe endpoint with simulated addresses and the
// dialer's trace (nil when tracing is off).
type conn struct {
	net.Conn
	local, remote Addr
	tr            *trace.Trace
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// Trace implements trace.Carrier: the server side of a simulated
// connection retrieves the dialing client's trace handle and records
// its own spans (SMTP verbs, greylist verdicts) into the same trace.
func (c *conn) Trace() *trace.Trace { return c.tr }

var _ trace.Carrier = (*conn)(nil)
