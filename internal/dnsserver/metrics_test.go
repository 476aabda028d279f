package dnsserver

import (
	"strings"
	"testing"

	"repro/internal/dnsmsg"
	"repro/internal/metrics"
)

// TestMetricsCountQueriesAndRcodes drives Handle through its rcode paths
// and checks the qtype and rcode counters, including the NXDOMAIN series
// the adoption study's scanner rate is computed from.
func TestMetricsCountQueriesAndRcodes(t *testing.T) {
	s := testServer(t)
	reg := metrics.NewRegistry()
	s.Register(reg)

	s.Handle(dnsmsg.NewQuery(1, "foo.net", dnsmsg.TypeMX))     // noerror
	s.Handle(dnsmsg.NewQuery(2, "smtp.foo.net", dnsmsg.TypeA)) // noerror
	s.Handle(dnsmsg.NewQuery(3, "nope.foo.net", dnsmsg.TypeA)) // nxdomain
	s.Handle(dnsmsg.NewQuery(4, "bar.org", dnsmsg.TypeA))      // refused (no zone)
	s.Handle(dnsmsg.NewQuery(5, "foo.net", dnsmsg.Type(99)))   // unknown qtype -> other
	notQuery := dnsmsg.NewQuery(6, "foo.net", dnsmsg.TypeA)
	notQuery.Header.OpCode = 2 // STATUS
	s.Handle(notQuery)         // notimpl, counted as a response but not a question

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`dns_queries_total{qtype="MX"} 1` + "\n",
		`dns_queries_total{qtype="A"} 3` + "\n",
		`dns_queries_total{qtype="other"} 1` + "\n",
		`dns_responses_total{rcode="noerror"} 3` + "\n", // MX, A, unknown-qtype NODATA
		`dns_responses_total{rcode="nxdomain"} 1` + "\n",
		`dns_responses_total{rcode="refused"} 1` + "\n",
		`dns_responses_total{rcode="notimpl"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
