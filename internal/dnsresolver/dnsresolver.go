// Package dnsresolver implements the stub resolver used by every mail
// sender in the reproduction — benign MTAs, webmail models and spam-bot
// models alike — and by the adoption scanner.
//
// Its central operation is LookupMX: resolve a domain's MX records, sort
// them by preference (lower preference value = higher priority, RFC 5321
// §5.1), and resolve each exchanger to addresses. When the MX answer lacks
// glue (additional-section A records), the resolver performs the follow-up
// A lookups itself — this is the "parallel scanner to resolve the missing
// entries" the paper had to build for the scans.io dataset (Section III).
// When a domain has no MX records at all, RFC 5321 §5.1's implicit-MX rule
// applies: the domain's own A record is used as an MX with preference 0.
package dnsresolver

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Errors reported by lookups.
var (
	// ErrNXDomain reports that the queried name does not exist.
	ErrNXDomain = errors.New("dnsresolver: no such domain")
	// ErrNoRecords reports that the name exists but has no records of
	// the queried type (NODATA), and no fallback applies.
	ErrNoRecords = errors.New("dnsresolver: no records")
	// ErrServFail reports a server-side failure rcode.
	ErrServFail = errors.New("dnsresolver: server failure")
	// ErrUnresolvableMX reports that none of a domain's MX targets
	// resolved to an address — one of the DNS misconfiguration modes
	// counted in Figure 2.
	ErrUnresolvableMX = errors.New("dnsresolver: no MX target resolves")
)

// Transport delivers a query message and returns the response.
type Transport interface {
	Exchange(query *dnsmsg.Message) (*dnsmsg.Message, error)
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(*dnsmsg.Message) (*dnsmsg.Message, error)

// Exchange implements Transport.
func (f TransportFunc) Exchange(q *dnsmsg.Message) (*dnsmsg.Message, error) { return f(q) }

// WireExchanger is the in-process server side of a wire-level exchange;
// *dnsserver.Server implements it.
type WireExchanger interface {
	Exchange(query []byte) ([]byte, error)
}

// Direct returns a Transport that talks to srv in process, still passing
// through the full wire codec so that simulations exercise exactly the
// bytes a network deployment would.
func Direct(srv WireExchanger) Transport {
	return TransportFunc(func(q *dnsmsg.Message) (*dnsmsg.Message, error) {
		wire, err := q.Pack()
		if err != nil {
			return nil, fmt.Errorf("dnsresolver: pack: %w", err)
		}
		respWire, err := srv.Exchange(wire)
		if err != nil {
			return nil, err
		}
		resp, err := dnsmsg.Unpack(respWire)
		if err != nil {
			return nil, fmt.Errorf("dnsresolver: unpack: %w", err)
		}
		return resp, nil
	})
}

// MXHost is one resolved mail exchanger for a domain.
type MXHost struct {
	// Preference is the MX preference value; lower is tried first.
	Preference uint16
	// Host is the exchanger's domain name.
	Host string
	// Addrs are the exchanger's IPv4 addresses in dotted-quad form.
	// Empty means the target did not resolve.
	Addrs []string
	// Implicit marks an RFC 5321 implicit MX synthesized from the
	// domain's A record because no MX records exist.
	Implicit bool
}

// Resolver is a caching stub resolver over a Transport. The zero value is
// not usable; construct with New.
type Resolver struct {
	tr    Transport
	clock simtime.Clock
	// nextID numbers queries deterministically, so Direct replays the
	// same bytes run after run. A transport that crosses a network
	// must not send it: UDP puts a random wire ID in its place.
	nextID atomic.Uint32

	mu      sync.Mutex
	cache   map[cacheKey]cacheEntry
	queries uint64
	hits    uint64

	// DisableCache turns off positive caching (the scanner uses fresh
	// lookups so two scans two months apart see live data).
	DisableCache bool
	// NegativeTTL, when positive, caches NXDOMAIN answers for that long
	// (RFC 2308 negative caching). Zero disables it.
	NegativeTTL time.Duration
}

type cacheKey struct {
	name string
	t    dnsmsg.Type
}

type cacheEntry struct {
	msg      *dnsmsg.Message
	negative bool
	expires  time.Time
}

// New returns a Resolver using tr, timing cache entries with clock.
func New(tr Transport, clock simtime.Clock) *Resolver {
	if clock == nil {
		clock = simtime.Real{}
	}
	return &Resolver{tr: tr, clock: clock, cache: make(map[cacheKey]cacheEntry)}
}

// Stats reports total queries issued through the resolver and cache hits.
func (r *Resolver) Stats() (queries, cacheHits uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries, r.hits
}

// Query performs a raw lookup of (name, type), consulting the cache.
func (r *Resolver) Query(name string, t dnsmsg.Type) (*dnsmsg.Message, error) {
	name = dnsmsg.CanonicalName(name)
	key := cacheKey{name, t}
	now := r.clock.Now()

	r.mu.Lock()
	if !r.DisableCache {
		if e, ok := r.cache[key]; ok && now.Before(e.expires) {
			r.hits++
			r.mu.Unlock()
			if e.negative {
				return e.msg, fmt.Errorf("%w: %s (cached)", ErrNXDomain, name)
			}
			return e.msg, nil
		}
	}
	r.queries++
	id := uint16(r.nextID.Add(1))
	r.mu.Unlock()

	resp, err := r.tr.Exchange(dnsmsg.NewQuery(id, name, t))
	if err != nil {
		return nil, err
	}
	switch resp.Header.RCode {
	case dnsmsg.RCodeSuccess:
	case dnsmsg.RCodeNameError:
		if !r.DisableCache && r.NegativeTTL > 0 {
			r.mu.Lock()
			r.cache[key] = cacheEntry{msg: resp, negative: true, expires: now.Add(r.NegativeTTL)}
			r.mu.Unlock()
		}
		return resp, fmt.Errorf("%w: %s", ErrNXDomain, name)
	default:
		return resp, fmt.Errorf("%w: %s for %s", ErrServFail, resp.Header.RCode, name)
	}

	if !r.DisableCache {
		ttl := minTTL(resp)
		if ttl > 0 {
			r.mu.Lock()
			r.cache[key] = cacheEntry{msg: resp, expires: now.Add(time.Duration(ttl) * time.Second)}
			r.mu.Unlock()
		}
	}
	return resp, nil
}

func minTTL(m *dnsmsg.Message) uint32 {
	var ttl uint32
	first := true
	for _, rr := range m.Answers {
		if first || rr.TTL < ttl {
			ttl = rr.TTL
			first = false
		}
	}
	if first {
		return 0
	}
	return ttl
}

const maxCNAMEDepth = 8

// LookupA resolves name to IPv4 addresses, chasing CNAMEs.
func (r *Resolver) LookupA(name string) ([]string, error) {
	name = dnsmsg.CanonicalName(name)
	for depth := 0; depth < maxCNAMEDepth; depth++ {
		resp, err := r.Query(name, dnsmsg.TypeA)
		if err != nil {
			return nil, err
		}
		var addrs []string
		next := ""
		for _, rr := range resp.Answers {
			switch data := rr.Data.(type) {
			case dnsmsg.A:
				if rr.Name == name || next != "" {
					addrs = append(addrs, data.String())
				}
			case dnsmsg.CNAME:
				if rr.Name == name {
					next = data.Target
				}
			}
		}
		if len(addrs) > 0 {
			return addrs, nil
		}
		if next == "" {
			return nil, fmt.Errorf("%w: A for %s", ErrNoRecords, name)
		}
		name = next
	}
	return nil, fmt.Errorf("dnsresolver: CNAME chain too deep for %s", name)
}

// LookupMX resolves a domain's mail exchangers, sorted by preference
// (ascending) and, within equal preference, by host name for determinism.
// Glue from the additional section is used when present; glue-less targets
// are re-resolved with LookupA. Targets that fail to resolve are returned
// with empty Addrs so callers can observe partial misconfiguration; if no
// target resolves, ErrUnresolvableMX is returned alongside the list.
//
// When the domain has no MX records but does have an A record, an implicit
// MX per RFC 5321 §5.1 is returned.
func (r *Resolver) LookupMX(domain string) ([]MXHost, error) {
	domain = dnsmsg.CanonicalName(domain)
	resp, err := r.Query(domain, dnsmsg.TypeMX)
	if err != nil {
		return nil, err
	}

	glue := make(map[string][]string)
	for _, rr := range resp.Additional {
		if a, ok := rr.Data.(dnsmsg.A); ok {
			glue[rr.Name] = append(glue[rr.Name], a.String())
		}
	}

	var hosts []MXHost
	for _, rr := range resp.Answers {
		mx, ok := rr.Data.(dnsmsg.MX)
		if !ok {
			continue
		}
		hosts = append(hosts, MXHost{Preference: mx.Preference, Host: mx.Host, Addrs: glue[mx.Host]})
	}

	if len(hosts) == 0 {
		// Implicit MX: fall back to the domain's own address record.
		addrs, aErr := r.LookupA(domain)
		if aErr != nil {
			return nil, fmt.Errorf("%w: MX for %s", ErrNoRecords, domain)
		}
		return []MXHost{{Preference: 0, Host: domain, Addrs: addrs, Implicit: true}}, nil
	}

	sort.SliceStable(hosts, func(i, j int) bool {
		if hosts[i].Preference != hosts[j].Preference {
			return hosts[i].Preference < hosts[j].Preference
		}
		return hosts[i].Host < hosts[j].Host
	})

	anyResolved := false
	for i := range hosts {
		if len(hosts[i].Addrs) == 0 {
			if addrs, err := r.LookupA(hosts[i].Host); err == nil {
				hosts[i].Addrs = addrs
			}
		}
		if len(hosts[i].Addrs) > 0 {
			anyResolved = true
		}
	}
	if !anyResolved {
		return hosts, fmt.Errorf("%w: %s", ErrUnresolvableMX, domain)
	}
	return hosts, nil
}

// LookupMXTrace is LookupMX with the walk recorded into tr: one MX
// event per resolved host (preference, address count, implicit flag)
// or an MX error event when the walk fails. The hot LookupMX path is
// untouched; a nil trace adds only nil checks.
func (r *Resolver) LookupMXTrace(domain string, tr *trace.Trace) ([]MXHost, error) {
	hosts, err := r.LookupMX(domain)
	if tr != nil {
		if err != nil {
			tr.MXError(domain, err)
		}
		for _, h := range hosts {
			tr.MX(h.Host, int(h.Preference), len(h.Addrs), h.Implicit)
		}
	}
	return hosts, err
}

// FlushCache drops every cached answer.
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = make(map[cacheKey]cacheEntry)
}

// Failover returns a Transport that tries each underlying transport in
// order until one succeeds — how stub resolvers use their resolver list.
// DNS-level errors in a successful exchange (NXDOMAIN etc.) are answers,
// not failures, and do not trigger failover.
func Failover(transports ...Transport) Transport {
	return TransportFunc(func(q *dnsmsg.Message) (*dnsmsg.Message, error) {
		var lastErr error
		for _, tr := range transports {
			resp, err := tr.Exchange(q)
			if err == nil {
				return resp, nil
			}
			lastErr = err
		}
		if lastErr == nil {
			lastErr = errors.New("dnsresolver: no transports configured")
		}
		return nil, fmt.Errorf("dnsresolver: all transports failed: %w", lastErr)
	})
}
