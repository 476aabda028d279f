// Package dnsbl implements a DNS-based blackhole list (the blacklists of
// the paper's related work [11][23][28]) and the experiment behind one of
// the paper's untested claims. Section II, quoting greylisting's
// supporters: "even when ineffective, greylisting would still be useful
// because the delay introduced in the delivery of spam messages can be
// enough for the sender ... to be detected and added into popular spammer
// blacklists — therefore still helping to prevent the final delivery of
// the spam message."
//
// The protocol is the real one: a client checks address a.b.c.d by
// querying the A record of d.c.b.a.<zone>; an answer (conventionally
// 127.0.0.2) means listed, NXDOMAIN means clean. The List here is backed
// by the reproduction's authoritative DNS server, so the checks travel
// through the same wire format as everything else.
//
// Synergy runs the experiment: a Kelihos-style retrying bot against
// greylisting, with a spamtrap feeding the DNSBL at a configurable
// listing latency. If the blacklist lists the bot before its
// greylisting-beating retry arrives, the retry is rejected outright —
// greylisting's delay converted spam into a permanent block.
package dnsbl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/dnsserver"
	"repro/internal/simtime"
)

// ListedAddr is the conventional DNSBL "listed" answer.
var ListedAddr = dnsmsg.MustIPv4("127.0.0.2")

// AppendReverseIPv4 appends "203.0.113.9" reversed to label order
// ("9.113.0.203") onto dst — the DNSBL (and in-addr.arpa) query prefix.
// With a caller-provided stack buffer the reversal allocates nothing;
// the old strings.Split implementation cost three allocations per
// query, which the lookup hot path of the bypass chain pays per RCPT.
func AppendReverseIPv4(dst []byte, ip string) ([]byte, error) {
	var octs [4]string
	rest := ip
	for i := 0; i < 4; i++ {
		dot := strings.IndexByte(rest, '.')
		switch {
		case i == 3:
			if dot >= 0 {
				return dst, fmt.Errorf("dnsbl: bad IPv4 address %q", ip)
			}
			octs[i] = rest
		case dot < 0:
			return dst, fmt.Errorf("dnsbl: bad IPv4 address %q", ip)
		default:
			octs[i], rest = rest[:dot], rest[dot+1:]
		}
		if !validOctet(octs[i]) {
			return dst, fmt.Errorf("dnsbl: bad IPv4 address %q", ip)
		}
	}
	dst = append(dst, octs[3]...)
	dst = append(dst, '.')
	dst = append(dst, octs[2]...)
	dst = append(dst, '.')
	dst = append(dst, octs[1]...)
	dst = append(dst, '.')
	dst = append(dst, octs[0]...)
	return dst, nil
}

// validOctet reports whether s is a decimal 0-255 without leading plus
// or minus signs (leading zeros are accepted, matching ParseIPv4).
func validOctet(s string) bool {
	if len(s) == 0 || len(s) > 3 {
		return false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + int(c-'0')
	}
	return n <= 255
}

// ReverseIPv4 converts "203.0.113.9" to "9.113.0.203" (the DNSBL query
// label order).
func ReverseIPv4(ip string) (string, error) {
	var buf [16]byte
	rev, err := AppendReverseIPv4(buf[:0], ip)
	if err != nil {
		return "", err
	}
	return string(rev), nil
}

// List is a DNSBL zone: Add/Remove manage listings, and the zone answers
// standard DNSBL queries through the attached dnsserver.Server.
type List struct {
	origin string
	zone   *dnsserver.Zone
	clock  simtime.Clock

	mu     sync.Mutex
	listed map[string]time.Time
}

// New creates a DNSBL under the given origin (e.g. "bl.example") and
// registers its zone with dns.
func New(origin string, dns *dnsserver.Server, clock simtime.Clock) *List {
	if clock == nil {
		clock = simtime.Real{}
	}
	l := &List{
		origin: dnsmsg.CanonicalName(origin),
		zone:   dnsserver.NewZone(origin),
		clock:  clock,
		listed: make(map[string]time.Time),
	}
	dns.AddZone(l.zone)
	return l
}

// Origin returns the blacklist's DNS origin.
func (l *List) Origin() string { return l.origin }

// Add lists an address.
func (l *List) Add(ip string) error {
	rev, err := ReverseIPv4(ip)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.listed[ip]; ok {
		return nil
	}
	l.listed[ip] = l.clock.Now()
	return l.zone.Add(dnsmsg.RR{
		Name: rev + "." + l.origin, Type: dnsmsg.TypeA, TTL: 300, Data: ListedAddr,
	})
}

// Remove delists an address.
func (l *List) Remove(ip string) error {
	rev, err := ReverseIPv4(ip)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.listed, ip)
	l.zone.Remove(rev+"."+l.origin, dnsmsg.TypeA)
	return nil
}

// Contains reports a listing (local check, no DNS).
func (l *List) Contains(ip string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.listed[ip]
	return ok
}

// Size reports the number of listed addresses.
func (l *List) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.listed)
}

// Lookup performs the standard client-side DNSBL check through a
// resolver: listed == the reversed name resolves. NXDOMAIN and NODATA
// mean "not listed"; any other failure (a timeout, SERVFAIL, an
// unreachable resolver) is returned, because it answers nothing about
// the listing. The query name is built append-style in one stack
// buffer; the only allocation left is the name string the resolver API
// takes.
func Lookup(res *dnsresolver.Resolver, origin, ip string) (bool, error) {
	var buf [80]byte
	name, err := AppendReverseIPv4(buf[:0], ip)
	if err != nil {
		return false, err
	}
	name = append(name, '.')
	name = append(name, dnsmsg.CanonicalName(origin)...)
	addrs, err := res.LookupA(string(name))
	switch {
	case errors.Is(err, dnsresolver.ErrNXDomain), errors.Is(err, dnsresolver.ErrNoRecords):
		return false, nil
	case err != nil:
		return false, err
	}
	return len(addrs) > 0, nil
}

// Trap is a spamtrap feed: reported client addresses are listed after the
// feed's processing latency (detection, aggregation, publication — the
// realistic delay the synergy hinges on).
type Trap struct {
	list    *List
	sched   *simtime.Scheduler
	latency time.Duration

	mu       sync.Mutex
	reported map[string]bool
}

// NewTrap builds a trap feeding list with the given listing latency.
func NewTrap(list *List, sched *simtime.Scheduler, latency time.Duration) *Trap {
	return &Trap{list: list, sched: sched, latency: latency, reported: make(map[string]bool)}
}

// Report schedules the listing of ip after the feed latency. Duplicate
// reports are ignored.
func (t *Trap) Report(ip string) {
	t.mu.Lock()
	if t.reported[ip] {
		t.mu.Unlock()
		return
	}
	t.reported[ip] = true
	t.mu.Unlock()
	t.sched.After(t.latency, "dnsbl listing", func() {
		t.list.Add(ip)
	})
}

// Reported reports whether ip has already been fed to the trap.
func (t *Trap) Reported(ip string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reported[ip]
}
