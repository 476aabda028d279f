package greylist

import (
	"net/netip"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Key building for the Check hot path. A greylisting engine on the
// critical path of every inbound SMTP transaction computes the storage
// key (client, NUL, sender, NUL, recipient) once per RCPT; building it
// with string concatenation plus strings.ToLower plus fmt.Sprintf (the
// original implementation) cost four allocations per check. The append
// helpers below build the same bytes into a caller-provided buffer —
// stack-allocated in Check — and map lookups use the m[string(buf)]
// form, which the compiler compiles without materializing a string. The
// key string is only ever allocated when a record is actually inserted.

// keyBufCap sizes the stack scratch buffers in Check. A key longer than
// this (unusually long mailboxes) silently spills to the heap; nothing
// breaks, the check just pays its old allocation cost.
const keyBufCap = 160

// appendKey appends the canonical storage key for the triplet to dst:
// clientKey, NUL, lowercased sender, NUL, lowercased recipient.
// clientKey must already be the triplet's client component (the full IP,
// or its /24 under subnet keying) as produced by appendClientKey.
func (t Triplet) appendKey(dst, clientKey []byte) []byte {
	dst = append(dst, clientKey...)
	dst = append(dst, 0)
	dst = appendLower(dst, t.Sender)
	dst = append(dst, 0)
	return appendLower(dst, t.Recipient)
}

// key returns the storage key as a string, collapsing the client address
// to its /24 network when subnet keying is enabled (Postgrey's
// --lookup-by-subnet, which tolerates webmail farms rotating through
// nearby addresses — the failure mode Table III documents). Non-hot-path
// convenience; Check builds the same bytes allocation-free.
func (t Triplet) key(subnet bool) string {
	var ck, kb [keyBufCap]byte
	return string(t.appendKey(kb[:0], appendClientKey(ck[:0], t.ClientIP, subnet)))
}

// appendClientKey appends the client component of the key: the IP
// verbatim, or its /24 network under subnet keying.
func appendClientKey(dst []byte, ip string, subnet bool) []byte {
	if subnet {
		return appendSubnet(dst, ip)
	}
	return append(dst, ip...)
}

// rekeyPrefix namespaces domain-keyed client components so an SPF
// domain can never collide with a literal client address (a colon is
// impossible in the IPv4/subnet forms and unambiguous here even for
// IPv6, whose textual form never starts with "spf:").
const rekeyPrefix = "spf:"

// appendChainClientKey appends the client component chosen by the
// bypass chain: "spf:" plus the lowercased key domain on a rekey, the
// plain client key otherwise. Domain-keyed state intentionally ignores
// subnet keying — the domain already aggregates across every outbound
// address the sender's SPF record covers.
func appendChainClientKey(dst []byte, ip, rekey string, subnet bool) []byte {
	if rekey != "" {
		dst = append(dst, rekeyPrefix...)
		return appendLower(dst, rekey)
	}
	return appendClientKey(dst, ip, subnet)
}

// appendLower appends s lowercased. Envelope addresses are ASCII in
// practice, so the loop lowercases byte-at-a-time without allocating;
// the first non-ASCII byte falls back to the full Unicode mapping for
// the remainder (every byte before it is ASCII, so the split point is a
// rune boundary and the result matches strings.ToLower exactly).
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(dst, strings.ToLower(s[i:])...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendSubnet appends the /24 network ("a.b.c") of an IPv4 address
// (including IPv4-mapped IPv6 forms), or ip unchanged for anything else.
func appendSubnet(dst []byte, ip string) []byte {
	a, err := netip.ParseAddr(ip)
	if err != nil {
		return append(dst, ip...)
	}
	if a.Is4In6() {
		a = a.Unmap()
	}
	if !a.Is4() {
		return append(dst, ip...)
	}
	b := a.As4()
	dst = strconv.AppendUint(dst, uint64(b[0]), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(b[1]), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, uint64(b[2]), 10)
}

// SubnetOf maps an IPv4 address to its /24 network ("a.b.c"). Non-IPv4
// input is returned unchanged.
func SubnetOf(ip string) string {
	var buf [64]byte
	return string(appendSubnet(buf[:0], ip))
}
