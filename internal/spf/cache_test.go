package spf

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/dnsserver"
	"repro/internal/simtime"
)

// buildCached publishes sender.example (ip4:192.0.2.0/24 mx -all) behind
// a transport whose failures are switchable, so tests can take the DNS
// "down" and watch the temperror policy.
func buildCached(t *testing.T, cfg CacheConfig) (*CachedChecker, *simtime.Sim, *bool) {
	t.Helper()
	dns := dnsserver.New()
	z := dnsserver.NewZone("sender.example")
	z.MustAdd(dnsmsg.RR{Name: "sender.example", Type: dnsmsg.TypeTXT, TTL: 300,
		Data: Record("ip4:192.0.2.0/24", "-all")})
	dns.AddZone(z)

	clock := simtime.NewSim(simtime.Epoch)
	down := false
	direct := dnsresolver.Direct(dns)
	flaky := dnsresolver.TransportFunc(func(q *dnsmsg.Message) (*dnsmsg.Message, error) {
		if down {
			return nil, errors.New("dns unreachable")
		}
		return direct.Exchange(q)
	})
	r := dnsresolver.New(flaky, clock)
	r.DisableCache = true
	cfg.Clock = clock
	cc := NewCached(New(r), cfg)
	return cc, clock, &down
}

func TestCachedCheckerHitAndExpiry(t *testing.T) {
	cc, clock, _ := buildCached(t, CacheConfig{TTL: 10 * time.Minute})

	res, err := cc.Check("192.0.2.10", "ads@sender.example", "sender.example")
	if err != nil || res != ResultPass {
		t.Fatalf("first check = %v, %v", res, err)
	}
	// Same domain, different host in the same /24: served from cache.
	res, err = cc.Check("192.0.2.77", "other@sender.example", "sender.example")
	if err != nil || res != ResultPass {
		t.Fatalf("sibling check = %v, %v", res, err)
	}
	if h, m := cc.hits.Load(), cc.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}
	// A different /24 is a different question.
	if res, _ := cc.Check("192.0.3.10", "ads@sender.example", ""); res != ResultFail {
		t.Fatalf("other-subnet check = %v, want fail", res)
	}
	if m := cc.misses.Load(); m != 2 {
		t.Fatalf("misses after other subnet = %d, want 2", m)
	}
	if cc.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", cc.Entries())
	}

	// Within the TTL the verdict is cached; past it the graph is re-walked.
	clock.Advance(9 * time.Minute)
	cc.Check("192.0.2.10", "ads@sender.example", "")
	if m := cc.misses.Load(); m != 2 {
		t.Fatalf("misses before expiry = %d, want 2", m)
	}
	clock.Advance(2 * time.Minute)
	cc.Check("192.0.2.10", "ads@sender.example", "")
	if m := cc.misses.Load(); m != 3 {
		t.Fatalf("misses after expiry = %d, want 3", m)
	}
}

// TestCachedCheckerTempError exercises the temperror policy: while the
// DNS is unreachable the verdict is temperror, cached only for the
// short TempErrorTTL so recovery is noticed promptly — not pinned for
// the full verdict TTL.
func TestCachedCheckerTempError(t *testing.T) {
	cc, clock, down := buildCached(t, CacheConfig{
		TTL:          10 * time.Minute,
		TempErrorTTL: 30 * time.Second,
	})
	*down = true

	res, err := cc.Check("192.0.2.10", "ads@sender.example", "sender.example")
	if res != ResultTempError {
		t.Fatalf("check with DNS down = %v, %v; want temperror", res, err)
	}
	if cc.temperrors.Load() != 1 {
		t.Fatalf("temperrors = %d, want 1", cc.temperrors.Load())
	}
	// The temperror is itself cached (shielding a dead resolver from the
	// full RCPT rate)...
	if res, _ := cc.Check("192.0.2.11", "ads@sender.example", ""); res != ResultTempError {
		t.Fatalf("cached temperror = %v", res)
	}
	if h := cc.hits.Load(); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}

	// ...but only for TempErrorTTL: once the DNS is back, the next check
	// after the short TTL sees the real verdict, long before the 10 min
	// a regular verdict would have been pinned for.
	*down = false
	clock.Advance(31 * time.Second)
	res, err = cc.Check("192.0.2.10", "ads@sender.example", "")
	if err != nil || res != ResultPass {
		t.Fatalf("check after recovery = %v, %v; want pass", res, err)
	}
	if cc.temperrors.Load() != 1 {
		t.Fatalf("temperrors after recovery = %d, want 1", cc.temperrors.Load())
	}
}

func TestCachedCheckerEviction(t *testing.T) {
	cc, _, _ := buildCached(t, CacheConfig{MaxEntries: 2})
	// Three distinct /24s against a 2-entry bound.
	cc.Check("192.0.2.10", "ads@sender.example", "")
	cc.Check("192.0.3.10", "ads@sender.example", "")
	cc.Check("192.0.4.10", "ads@sender.example", "")
	if cc.Entries() > 2 {
		t.Fatalf("entries = %d, want <= 2", cc.Entries())
	}
	if cc.evictions.Load() == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestCachedCheckerUncacheable(t *testing.T) {
	cc, _, _ := buildCached(t, CacheConfig{})
	// Unparseable client IP: still answered (permerror), never cached.
	res, _ := cc.Check("not-an-ip", "ads@sender.example", "")
	if res != ResultPermError {
		t.Fatalf("bad IP = %v, want permerror", res)
	}
	// No domain at all (null sender, no HELO): same deal.
	cc.Check("192.0.2.10", "", "")
	if cc.Entries() != 0 {
		t.Fatalf("entries = %d, want 0", cc.Entries())
	}
}

// TestCachedCheckerTruncated: a truncated answer (dnsresolver's
// ErrTruncated, the error its UDP transport returns for TC=1) is a
// temperror whether it cut the TXT record or an a/mx lookup, cached for
// the short TempErrorTTL, never read as "no record" or "no match".
func TestCachedCheckerTruncated(t *testing.T) {
	dns := dnsserver.New()
	z := dnsserver.NewZone("sender.example")
	z.MustAdd(dnsmsg.RR{Name: "sender.example", Type: dnsmsg.TypeTXT, TTL: 300,
		Data: Record("a:host.sender.example", "-all")})
	z.MustAdd(dnsmsg.RR{Name: "host.sender.example", Type: dnsmsg.TypeA, TTL: 300,
		Data: dnsmsg.MustIPv4("192.0.2.10")})
	dns.AddZone(z)
	direct := dnsresolver.Direct(dns)
	for _, cut := range []dnsmsg.Type{dnsmsg.TypeTXT, dnsmsg.TypeA} {
		t.Run(cut.String(), func(t *testing.T) {
			clock := simtime.NewSim(simtime.Epoch)
			exchanges := 0
			r := dnsresolver.New(dnsresolver.TransportFunc(func(q *dnsmsg.Message) (*dnsmsg.Message, error) {
				exchanges++
				if q.Questions[0].Type == cut {
					return nil, fmt.Errorf("%w for %s", dnsresolver.ErrTruncated, q.Questions[0].Name)
				}
				return direct.Exchange(q)
			}), clock)
			cc := NewCached(New(r), CacheConfig{TTL: 10 * time.Minute, TempErrorTTL: 30 * time.Second, Clock: clock})
			res, err := cc.Check("192.0.2.10", "ads@sender.example", "")
			if res != ResultTempError || !errors.Is(err, dnsresolver.ErrTruncated) {
				t.Fatalf("check = %v, %v; want temperror wrapping ErrTruncated", res, err)
			}
			n := exchanges
			clock.Advance(29 * time.Second)
			if res, _ := cc.Check("192.0.2.10", "ads@sender.example", ""); res != ResultTempError || exchanges != n {
				t.Fatalf("within 30 s: %v after %d more exchanges, want the cached temperror", res, exchanges-n)
			}
			clock.Advance(2 * time.Second)
			cc.Check("192.0.2.10", "ads@sender.example", "")
			if exchanges == n {
				t.Fatal("the temperror outlived its 30 s")
			}
		})
	}
}
