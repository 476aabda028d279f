// Package bypass provides the production stages of the greylisting
// bypass chain (internal/greylist.Chain): SPF evaluation with
// SPF-domain re-keying, DNS whitelist lookups, and a reverse-DNS
// "looks like a mail server" heuristic.
//
// The paper measures greylisting's costs as well as its effect: every
// legitimate first-contact delivery eats the triplet delay (Section VI
// weighs this against the spam blocked). The filters that grew out of
// that trade-off — spfgreylist keying the greylist by SPF domain,
// grayland waiving the dance for DNSWL-listed and mail-server-named
// clients — all try to spend the delay only on senders that look like
// bots. Each heuristic is also an attack surface: a bot that publishes
// its own SPF record or acquires a flattering PTR name walks past the
// stage. The lab's bypass experiment measures exactly that trade, per
// stage, per bot family.
//
// Every stage here follows the chain's contract: answer from a warmed
// cache without allocating (the chain-negative path through all three
// stages is benchmark-pinned at 0 allocs/op), and return errors rather
// than guessing when the DNS is unreachable — the chain counts the
// error and fails open to plain greylisting.
package bypass

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnsbl"
	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/greylist"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/spf"
)

// SPFStage evaluates the sender domain's SPF policy and, on Pass,
// re-keys the greylist by that domain: any outbound IP the domain
// authorizes continues the same triplet dance, so a provider rotating
// through a pool never restarts the delay (the spfgreylist behaviour).
//
// Results other than Pass skip — SPF Fail is not this stage's business
// to reject (the MTA's SPF policy handles that); greylisting proceeds
// normally. TempError returns an error so the chain counts the DNS
// trouble and fails open.
type SPFStage struct {
	checker *spf.CachedChecker
}

// SPF builds the stage over a cached checker (the cache is what keeps
// repeat evaluations off the wire and off the allocator).
func SPF(checker *spf.CachedChecker) *SPFStage { return &SPFStage{checker: checker} }

// Name implements greylist.Stage.
func (s *SPFStage) Name() string { return "spf" }

// Eval implements greylist.Stage.
func (s *SPFStage) Eval(t greylist.Triplet) (greylist.StageOutcome, error) {
	domain := smtpproto.DomainOf(t.Sender)
	if domain == "" {
		// Null sender (bounces): nothing to evaluate without a HELO,
		// which the triplet does not carry.
		return greylist.StageOutcome{}, nil
	}
	res, err := s.checker.Check(t.ClientIP, t.Sender, "")
	switch res {
	case spf.ResultPass:
		return greylist.StageOutcome{Action: greylist.StageRekey, Domain: domain}, nil
	case spf.ResultTempError:
		return greylist.StageOutcome{}, err
	}
	return greylist.StageOutcome{}, nil
}

// EnvelopeScoped implements greylist.EnvelopeScoped: the answer depends
// on the client IP and the sender alone.
func (*SPFStage) EnvelopeScoped() {}

// Register exports the underlying checker's spf_* counters.
func (s *SPFStage) Register(reg *metrics.Registry) { s.checker.Register(reg) }

// cacheEntry is one memoized boolean DNS answer.
type cacheEntry struct {
	yes     bool
	expires int64 // unix ns
}

// boolCache memoizes per-client-IP yes/no DNS answers for the DNSWL
// and rDNS stages. Reads take the read lock and allocate nothing (the
// key is the triplet's ClientIP string as-is).
type boolCache struct {
	clock      simtime.Clock
	ttl        time.Duration
	maxEntries int

	mu    sync.RWMutex
	cache map[string]cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newBoolCache(clock simtime.Clock, ttl time.Duration, maxEntries int) *boolCache {
	return &boolCache{
		clock:      clock,
		ttl:        ttl,
		maxEntries: maxEntries,
		cache:      make(map[string]cacheEntry),
	}
}

func (c *boolCache) get(ip string) (bool, bool) {
	now := c.clock.Now().UnixNano()
	c.mu.RLock()
	e, ok := c.cache[ip]
	c.mu.RUnlock()
	if ok && now < e.expires {
		c.hits.Add(1)
		return e.yes, true
	}
	c.misses.Add(1)
	return false, false
}

func (c *boolCache) put(ip string, yes bool) {
	now := c.clock.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cache) >= c.maxEntries {
		for k, e := range c.cache {
			if len(c.cache) < c.maxEntries {
				break
			}
			// Expired first is not worth a second pass here: entries
			// are two words, the bound is generous, and eviction only
			// fires under sustained unique-IP churn (a scan, not mail).
			_ = e
			delete(c.cache, k)
		}
	}
	c.cache[ip] = cacheEntry{yes: yes, expires: now + int64(c.ttl)}
}

func (c *boolCache) entries() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cache)
}

// DNSWLStage bypasses greylisting for clients listed on a DNS
// whitelist — the inverse of a DNSBL, same wire protocol (dnswl.org in
// deployments; the lab publishes its own zone). Answers are cached per
// client IP for the configured TTL.
type DNSWLStage struct {
	resolver *dnsresolver.Resolver
	origin   string
	cache    *boolCache
}

// DNSWL builds the stage querying origin (e.g. "list.dnswl.example")
// through res.
func DNSWL(res *dnsresolver.Resolver, origin string, cfg CacheConfig) *DNSWLStage {
	cfg = cfg.withDefaults()
	return &DNSWLStage{
		resolver: res,
		origin:   origin,
		cache:    newBoolCache(cfg.Clock, cfg.TTL, cfg.MaxEntries),
	}
}

// Name implements greylist.Stage.
func (s *DNSWLStage) Name() string { return "dnswl" }

// Eval implements greylist.Stage.
func (s *DNSWLStage) Eval(t greylist.Triplet) (greylist.StageOutcome, error) {
	listed, ok := s.cache.get(t.ClientIP)
	if !ok {
		var err error
		listed, err = dnsbl.Lookup(s.resolver, s.origin, t.ClientIP)
		if err != nil {
			return greylist.StageOutcome{}, err
		}
		s.cache.put(t.ClientIP, listed)
	}
	if listed {
		return greylist.StageOutcome{Action: greylist.StageBypass, Reason: greylist.ReasonDNSWL}, nil
	}
	return greylist.StageOutcome{}, nil
}

// EnvelopeScoped implements greylist.EnvelopeScoped: the answer depends
// on the client IP alone.
func (*DNSWLStage) EnvelopeScoped() {}

// Register exports the stage's cache counters.
func (s *DNSWLStage) Register(reg *metrics.Registry) {
	registerCache(reg, "dnswl", s.cache)
}

// RDNSStage bypasses greylisting for clients whose reverse DNS looks
// like a dedicated mail server (grayland's heuristic): a PTR name
// containing a mail-server token and no dynamic-pool token. Bots run
// on consumer machines whose PTR names — when they exist at all — look
// like "1-2-3-4.dyn.isp.example"; a box someone bothered to name
// "smtp1.provider.example" is probably a real MTA with a retry queue,
// so the triplet delay buys nothing.
type RDNSStage struct {
	resolver *dnsresolver.Resolver
	cache    *boolCache
}

// RDNS builds the stage resolving PTR records through res.
func RDNS(res *dnsresolver.Resolver, cfg CacheConfig) *RDNSStage {
	cfg = cfg.withDefaults()
	return &RDNSStage{
		resolver: res,
		cache:    newBoolCache(cfg.Clock, cfg.TTL, cfg.MaxEntries),
	}
}

// Name implements greylist.Stage.
func (s *RDNSStage) Name() string { return "rdns" }

// Eval implements greylist.Stage.
func (s *RDNSStage) Eval(t greylist.Triplet) (greylist.StageOutcome, error) {
	mailish, ok := s.cache.get(t.ClientIP)
	if !ok {
		var err error
		mailish, err = s.lookup(t.ClientIP)
		if err != nil {
			return greylist.StageOutcome{}, err
		}
		s.cache.put(t.ClientIP, mailish)
	}
	if mailish {
		return greylist.StageOutcome{Action: greylist.StageBypass, Reason: greylist.ReasonRDNS}, nil
	}
	return greylist.StageOutcome{}, nil
}

func (s *RDNSStage) lookup(ip string) (bool, error) {
	var buf [80]byte
	name, err := dnsbl.AppendReverseIPv4(buf[:0], ip)
	if err != nil {
		return false, err
	}
	name = append(name, ".in-addr.arpa"...)
	msg, err := s.resolver.Query(string(name), dnsmsg.TypePTR)
	if err != nil {
		if errors.Is(err, dnsresolver.ErrNXDomain) {
			return false, nil // no PTR at all: not a named mail server
		}
		return false, err
	}
	for _, rr := range msg.Answers {
		if ptr, ok := rr.Data.(dnsmsg.PTR); ok && LooksLikeMailServer(ptr.Target) {
			return true, nil
		}
	}
	return false, nil
}

// EnvelopeScoped implements greylist.EnvelopeScoped: the answer depends
// on the client IP alone.
func (*RDNSStage) EnvelopeScoped() {}

// Register exports the stage's cache counters.
func (s *RDNSStage) Register(reg *metrics.Registry) {
	registerCache(reg, "rdns", s.cache)
}

// mailTokens mark hostnames operators give to real mail servers;
// poolTokens mark the consumer-pool naming schemes bots live in. A
// pool token vetoes: "mail" inside "1-2-3-4.dialpool.example" must not
// whitelist a dial-up.
var (
	mailTokens = []string{"mail", "smtp", "mx", "relay", "mta", "out", "postfix", "exim"}
	poolTokens = []string{"dyn", "dial", "dsl", "pool", "cable", "dhcp", "adsl", "broadband", "ppp", "client", "cust"}
)

// LooksLikeMailServer applies the rDNS heuristic to a PTR target name.
// Substring matching is deliberate — the deployed filters use the same
// loose patterns, and the lab experiment measures exactly how loose
// they are (its SPFProbe cousin buys itself a "smtp" PTR name).
func LooksLikeMailServer(host string) bool {
	h := strings.ToLower(host)
	for _, tok := range poolTokens {
		if strings.Contains(h, tok) {
			return false
		}
	}
	for _, tok := range mailTokens {
		if strings.Contains(h, tok) {
			return true
		}
	}
	return false
}

// CacheConfig tunes a stage's per-IP answer cache; the zero value gets
// defaults.
type CacheConfig struct {
	// TTL is the answer lifetime (default 1h — DNSWL listings and PTR
	// names change on human timescales).
	TTL time.Duration
	// MaxEntries bounds the cache (default 65536).
	MaxEntries int
	// Clock drives expiry; nil means real time.
	Clock simtime.Clock
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.TTL <= 0 {
		c.TTL = time.Hour
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 65536
	}
	if c.Clock == nil {
		c.Clock = simtime.Real{}
	}
	return c
}

func registerCache(reg *metrics.Registry, stage string, c *boolCache) {
	reg.CounterFunc("bypass_cache_hits_total",
		"Bypass-stage answers served from the per-IP cache.",
		c.hits.Load, "stage", stage)
	reg.CounterFunc("bypass_cache_misses_total",
		"Bypass-stage answers resolved through DNS.",
		c.misses.Load, "stage", stage)
	reg.GaugeFunc("bypass_cache_entries",
		"Bypass-stage cache entries.",
		func() float64 { return float64(c.entries()) }, "stage", stage)
}
