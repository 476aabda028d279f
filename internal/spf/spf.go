// Package spf implements a practical subset of SPF (RFC 7208), the
// sender-authentication technique the paper lists among the established
// pre-acceptance defenses ([3], openspf.org) that greylisting and
// nolisting complement. Having it in the library completes the
// sender-based filtering toolbox: a deployment can layer SPF, DNSBL,
// nolisting and greylisting in one RCPT hook.
//
// Supported: the v=spf1 record discovered in TXT; mechanisms all, ip4
// (address or CIDR), a, mx (with optional :domain), include; qualifiers
// + - ~ ?; the RFC's limit of 10 DNS-querying mechanisms per check.
// Unsupported (returning PermError where the RFC demands it): macros,
// exp=, ptr, exists, redirect=.
package spf

import (
	"errors"
	"fmt"
	"net"
	"strings"

	"repro/internal/dnsmsg"
	"repro/internal/dnsresolver"
	"repro/internal/smtpproto"
)

// Result is an SPF evaluation outcome (RFC 7208 §2.6).
type Result string

// Results.
const (
	// ResultNone: no SPF record published.
	ResultNone Result = "none"
	// ResultNeutral: the record makes no assertion ("?").
	ResultNeutral Result = "neutral"
	// ResultPass: the client is authorized.
	ResultPass Result = "pass"
	// ResultFail: the client is NOT authorized ("-").
	ResultFail Result = "fail"
	// ResultSoftFail: probably not authorized ("~").
	ResultSoftFail Result = "softfail"
	// ResultTempError: a DNS lookup failed transiently.
	ResultTempError Result = "temperror"
	// ResultPermError: the record cannot be interpreted.
	ResultPermError Result = "permerror"
)

// maxDNSMechanisms is RFC 7208 §4.6.4's lookup limit.
const maxDNSMechanisms = 10

// Checker evaluates SPF through a resolver.
type Checker struct {
	resolver *dnsresolver.Resolver
}

// New returns a Checker.
func New(resolver *dnsresolver.Resolver) *Checker {
	return &Checker{resolver: resolver}
}

// Check evaluates the SPF policy of the MAIL FROM domain (falling back to
// the HELO name for a null sender) against the connecting client address.
func (c *Checker) Check(clientIP, mailFrom, helo string) (Result, error) {
	domain := smtpproto.DomainOf(mailFrom)
	if domain == "" {
		domain = dnsmsg.CanonicalName(helo)
	}
	if domain == "" {
		return ResultNone, nil
	}
	ip := net.ParseIP(clientIP)
	if ip == nil {
		return ResultPermError, fmt.Errorf("spf: bad client address %q", clientIP)
	}
	budget := maxDNSMechanisms
	return c.checkHost(ip, domain, &budget, 0)
}

const maxIncludeDepth = 10

func (c *Checker) checkHost(ip net.IP, domain string, budget *int, depth int) (Result, error) {
	if depth > maxIncludeDepth {
		return ResultPermError, fmt.Errorf("spf: include recursion too deep at %s", domain)
	}
	record, result, err := c.lookupRecord(domain)
	if result != "" {
		return result, err
	}

	for _, term := range strings.Fields(record)[1:] { // skip "v=spf1"
		qualifier, mech := splitQualifier(term)
		name, arg, _ := strings.Cut(mech, ":")
		name = strings.ToLower(name)

		var matched bool
		var mechErr error
		switch name {
		case "all":
			matched = true
		case "ip4":
			matched, mechErr = matchIP4(ip, arg)
		case "a":
			matched, mechErr = c.matchA(ip, orDefault(arg, domain), budget)
		case "mx":
			matched, mechErr = c.matchMX(ip, orDefault(arg, domain), budget)
		case "include":
			if arg == "" {
				return ResultPermError, fmt.Errorf("spf: include without domain in %q", term)
			}
			if !spend(budget) {
				return ResultPermError, fmt.Errorf("spf: DNS mechanism limit exceeded")
			}
			sub, err := c.checkHost(ip, arg, budget, depth+1)
			switch sub {
			case ResultPass:
				matched = true
			case ResultTempError, ResultPermError:
				return sub, err
			case ResultNone:
				return ResultPermError, fmt.Errorf("spf: include target %s has no record", arg)
			}
		case "ptr", "exists", "exp", "redirect":
			return ResultPermError, fmt.Errorf("spf: unsupported mechanism %q", name)
		default:
			if strings.Contains(name, "=") {
				continue // unknown modifier: ignored per RFC
			}
			return ResultPermError, fmt.Errorf("spf: unknown mechanism %q", name)
		}
		if mechErr != nil {
			return ResultTempError, mechErr
		}
		if matched {
			return qualifierResult(qualifier), nil
		}
	}
	return ResultNeutral, nil
}

// lookupRecord fetches the domain's single v=spf1 record. The Result
// return is non-empty when the lookup itself decides the outcome.
func (c *Checker) lookupRecord(domain string) (record string, result Result, err error) {
	resp, err := c.resolver.Query(domain, dnsmsg.TypeTXT)
	if err != nil {
		if errors.Is(err, dnsresolver.ErrNXDomain) {
			// RFC 7208 §4.3: a nonexistent domain yields None.
			return "", ResultNone, nil
		}
		return "", ResultTempError, err
	}
	var records []string
	for _, rr := range resp.Answers {
		txt, ok := rr.Data.(dnsmsg.TXT)
		if !ok {
			continue
		}
		joined := strings.Join(txt.Strings, "")
		if joined == "v=spf1" || strings.HasPrefix(joined, "v=spf1 ") {
			records = append(records, joined)
		}
	}
	switch len(records) {
	case 0:
		return "", ResultNone, nil
	case 1:
		return records[0], "", nil
	default:
		return "", ResultPermError, fmt.Errorf("spf: %d v=spf1 records at %s", len(records), domain)
	}
}

func splitQualifier(term string) (byte, string) {
	if len(term) > 0 {
		switch term[0] {
		case '+', '-', '~', '?':
			return term[0], term[1:]
		}
	}
	return '+', term
}

func qualifierResult(q byte) Result {
	switch q {
	case '-':
		return ResultFail
	case '~':
		return ResultSoftFail
	case '?':
		return ResultNeutral
	default:
		return ResultPass
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func spend(budget *int) bool {
	if *budget <= 0 {
		return false
	}
	*budget--
	return true
}

func matchIP4(ip net.IP, arg string) (bool, error) {
	if arg == "" {
		return false, fmt.Errorf("spf: ip4 without address")
	}
	if strings.Contains(arg, "/") {
		_, ipnet, err := net.ParseCIDR(arg)
		if err != nil {
			return false, fmt.Errorf("spf: %w", err)
		}
		return ipnet.Contains(ip), nil
	}
	target := net.ParseIP(arg)
	if target == nil {
		return false, fmt.Errorf("spf: bad ip4 %q", arg)
	}
	return target.Equal(ip), nil
}

func (c *Checker) matchA(ip net.IP, domain string, budget *int) (bool, error) {
	if !spend(budget) {
		return false, fmt.Errorf("spf: DNS mechanism limit exceeded")
	}
	addrs, err := c.resolver.LookupA(domain)
	if err != nil {
		return false, truncated(err) // nonexistent → no match, per RFC
	}
	for _, a := range addrs {
		if net.ParseIP(a).Equal(ip) {
			return true, nil
		}
	}
	return false, nil
}

func (c *Checker) matchMX(ip net.IP, domain string, budget *int) (bool, error) {
	if !spend(budget) {
		return false, fmt.Errorf("spf: DNS mechanism limit exceeded")
	}
	hosts, err := c.resolver.LookupMX(domain)
	if err != nil {
		return false, truncated(err)
	}
	for _, h := range hosts {
		for _, a := range h.Addrs {
			if net.ParseIP(a).Equal(ip) {
				return true, nil
			}
		}
	}
	return false, nil
}

// truncated passes on a truncated answer, which check_host turns into
// temperror: the records that would have matched may be the ones cut
// off. Any other failed a/mx lookup is no match.
func truncated(err error) error {
	if errors.Is(err, dnsresolver.ErrTruncated) {
		return err
	}
	return nil
}

// Record builds a v=spf1 TXT record for publication — the deployment-side
// helper matching the checker.
func Record(terms ...string) dnsmsg.TXT {
	return dnsmsg.TXT{Strings: []string{"v=spf1 " + strings.Join(terms, " ")}}
}
