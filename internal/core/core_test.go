package core

import (
	"testing"
	"time"

	"repro/internal/dnsresolver"
	"repro/internal/dnsserver"
	"repro/internal/greylist"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/smtpclient"
)

type env struct {
	net      *netsim.Network
	dns      *dnsserver.Server
	clock    *simtime.Sim
	resolver *dnsresolver.Resolver
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := &env{
		net:   netsim.New(),
		dns:   dnsserver.New(),
		clock: simtime.NewSim(simtime.Epoch),
	}
	e.resolver = dnsresolver.New(dnsresolver.Direct(e.dns), e.clock)
	e.resolver.DisableCache = true
	return e
}

func (e *env) deps() Deps {
	return Deps{Net: e.net, DNS: e.dns, Clock: e.clock}
}

func (e *env) deploy(t *testing.T, cfg Config) *Domain {
	t.Helper()
	d, err := New(cfg, e.deps())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func baseConfig(defense Defense) Config {
	return Config{
		Domain:      "foo.net",
		PrimaryIP:   "10.0.0.1",
		SecondaryIP: "10.0.0.2",
		Defense:     defense,
	}
}

func (e *env) send(from, to string) smtpclient.Receipt {
	dialer := &smtpclient.SimDialer{Net: e.net, LocalIP: "192.0.2.77"}
	return smtpclient.DeliverMX(e.resolver, dialer, "foo.net", smtpclient.Message{
		HeloName: "client.example",
		From:     from,
		To:       []string{to},
		Data:     []byte("Subject: t\r\n\r\nbody\r\n"),
	})
}

func TestUndefendedDomainAcceptsFirstAttempt(t *testing.T) {
	e := newEnv(t)
	d := e.deploy(t, baseConfig(DefenseNone))
	r := e.send("alice@sender.example", "bob@foo.net")
	if r.Outcome != smtpclient.Delivered {
		t.Fatalf("receipt = %+v", r)
	}
	if r.Host != d.PrimaryHost() {
		t.Fatalf("delivered via %s, want primary", r.Host)
	}
	if len(d.Inbox()) != 1 {
		t.Fatalf("inbox = %d", len(d.Inbox()))
	}
}

func TestNolistingPrimaryClosedSecondaryOpen(t *testing.T) {
	e := newEnv(t)
	d := e.deploy(t, baseConfig(DefenseNolisting))

	// The primary host's A record resolves but nothing listens on :25.
	hosts, err := e.resolver.LookupMX("foo.net")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("MX hosts = %v", hosts)
	}
	if e.net.Listening(hosts[0].Addrs[0] + ":25") {
		t.Fatal("nolisted primary is listening")
	}
	if !e.net.Listening(hosts[1].Addrs[0] + ":25") {
		t.Fatal("secondary not listening")
	}

	// A compliant sender still delivers (via the secondary).
	r := e.send("alice@sender.example", "bob@foo.net")
	if r.Outcome != smtpclient.Delivered || r.Host != d.SecondaryHost() {
		t.Fatalf("receipt = %+v", r)
	}
	if got := d.Inbox(); len(got) != 1 || got[0].Host != d.SecondaryHost() {
		t.Fatalf("inbox = %+v", got)
	}
}

func TestGreylistingDefersThenAccepts(t *testing.T) {
	e := newEnv(t)
	cfg := baseConfig(DefenseGreylisting)
	cfg.GreylistPolicy = greylist.Policy{Threshold: 300 * time.Second, RetryWindow: 48 * time.Hour}
	d := e.deploy(t, cfg)

	r := e.send("alice@sender.example", "bob@foo.net")
	if r.Outcome != smtpclient.TransientFailure {
		t.Fatalf("first attempt = %+v, want transient", r)
	}
	if len(d.Deferrals()) == 0 {
		t.Fatal("no deferral recorded")
	}
	if len(d.Inbox()) != 0 {
		t.Fatal("message delivered on first attempt")
	}

	// Too-early retry is still deferred.
	e.clock.Advance(100 * time.Second)
	if r := e.send("alice@sender.example", "bob@foo.net"); r.Outcome != smtpclient.TransientFailure {
		t.Fatalf("early retry = %+v", r)
	}

	// Past the threshold the retry is accepted.
	e.clock.Advance(201 * time.Second)
	if r := e.send("alice@sender.example", "bob@foo.net"); r.Outcome != smtpclient.Delivered {
		t.Fatalf("late retry = %+v", r)
	}
	if len(d.Inbox()) != 1 {
		t.Fatalf("inbox = %d", len(d.Inbox()))
	}
}

func TestBothDefensesCompose(t *testing.T) {
	e := newEnv(t)
	cfg := baseConfig(DefenseBoth)
	cfg.GreylistPolicy = greylist.Policy{Threshold: 300 * time.Second, RetryWindow: 48 * time.Hour}
	d := e.deploy(t, cfg)

	// First attempt: walks past the dead primary, greylisted at the
	// secondary.
	r := e.send("alice@sender.example", "bob@foo.net")
	if r.Outcome != smtpclient.TransientFailure || r.Host != d.SecondaryHost() {
		t.Fatalf("first attempt = %+v", r)
	}
	e.clock.Advance(301 * time.Second)
	if r := e.send("alice@sender.example", "bob@foo.net"); r.Outcome != smtpclient.Delivered {
		t.Fatalf("retry = %+v", r)
	}
}

func TestUnknownRecipientRejectedBeforeGreylisting(t *testing.T) {
	e := newEnv(t)
	cfg := baseConfig(DefenseGreylisting)
	cfg.Users = []string{"bob"}
	d := e.deploy(t, cfg)

	r := e.send("probe@scanner.example", "doesnotexist@foo.net")
	if r.Outcome != smtpclient.PermanentFailure {
		t.Fatalf("unknown recipient = %+v, want permanent 550", r)
	}
	// Crucially: no greylist record was created — the scanner learned
	// nothing about greylisting (Section II's measurability argument).
	if got := d.Greylister().PendingCount(); got != 0 {
		t.Fatalf("greylist pending = %d, want 0", got)
	}
	if len(d.Rejections()) != 1 || d.Rejections()[0].Code != 550 {
		t.Fatalf("rejections = %+v", d.Rejections())
	}
}

func TestValidRecipientStillGreylisted(t *testing.T) {
	e := newEnv(t)
	cfg := baseConfig(DefenseGreylisting)
	cfg.Users = []string{"bob"}
	e.deploy(t, cfg)
	if r := e.send("a@b.example", "bob@foo.net"); r.Outcome != smtpclient.TransientFailure {
		t.Fatalf("valid recipient = %+v, want greylisted", r)
	}
}

func TestUnprotectedRecipientBypassesGreylisting(t *testing.T) {
	// The paper's control addresses: postmaster is left unprotected so
	// the same campaign can be observed without greylisting.
	e := newEnv(t)
	cfg := baseConfig(DefenseGreylisting)
	cfg.UnprotectedRecipients = []string{"postmaster"}
	d := e.deploy(t, cfg)

	r := e.send("bot@spam.example", "postmaster@foo.net")
	if r.Outcome != smtpclient.Delivered {
		t.Fatalf("postmaster delivery = %+v, want immediate accept", r)
	}
	if r2 := e.send("bot@spam.example", "bob@foo.net"); r2.Outcome != smtpclient.TransientFailure {
		t.Fatalf("protected user = %+v, want deferred", r2)
	}
	if got := d.InboxTo("postmaster@foo.net"); len(got) != 1 {
		t.Fatalf("InboxTo = %+v", got)
	}
}

func TestRelayDenied(t *testing.T) {
	e := newEnv(t)
	e.deploy(t, baseConfig(DefenseNone))
	r := e.send("a@b.example", "victim@other-domain.example")
	if r.Outcome != smtpclient.PermanentFailure {
		t.Fatalf("relay attempt = %+v, want 550", r)
	}
}

func TestSingleMXDomain(t *testing.T) {
	e := newEnv(t)
	cfg := Config{Domain: "foo.net", PrimaryIP: "10.0.0.1", Defense: DefenseNone}
	d := e.deploy(t, cfg)
	if d.SecondaryHost() != "" {
		t.Fatalf("secondary = %q", d.SecondaryHost())
	}
	if got := len(d.MXHosts()); got != 1 {
		t.Fatalf("MX hosts = %d", got)
	}
	if r := e.send("a@b.example", "bob@foo.net"); r.Outcome != smtpclient.Delivered {
		t.Fatalf("receipt = %+v", r)
	}
}

func TestConfigValidation(t *testing.T) {
	e := newEnv(t)
	cases := []Config{
		{},                  // empty domain
		{Domain: "foo.net"}, // no primary IP
		{Domain: "foo.net", PrimaryIP: "10.0.0.1", Defense: DefenseNolisting}, // nolisting needs secondary
	}
	for i, cfg := range cases {
		if _, err := New(cfg, e.deps()); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
	if _, err := New(baseConfig(DefenseNone), Deps{}); err == nil {
		t.Error("New accepted empty deps")
	}
}

func TestDefenseStringsAndPredicates(t *testing.T) {
	if DefenseNone.String() != "none" || DefenseBoth.String() != "nolisting+greylisting" {
		t.Error("Defense.String broken")
	}
	if DefenseNone.Nolisting() || DefenseNone.Greylisting() {
		t.Error("DefenseNone predicates")
	}
	if !DefenseBoth.Nolisting() || !DefenseBoth.Greylisting() {
		t.Error("DefenseBoth predicates")
	}
	if !DefenseNolisting.Nolisting() || DefenseNolisting.Greylisting() {
		t.Error("DefenseNolisting predicates")
	}
}

func TestClearLogsKeepsGreylistState(t *testing.T) {
	e := newEnv(t)
	cfg := baseConfig(DefenseGreylisting)
	d := e.deploy(t, cfg)
	e.send("a@b.example", "bob@foo.net")
	// The MX walk hits both the primary and the secondary, and both
	// share the greylister, so a single send records two deferrals.
	if len(d.Deferrals()) != 2 {
		t.Fatalf("deferrals = %d, want 2 (one per MX host walked)", len(d.Deferrals()))
	}
	d.ClearLogs()
	if len(d.Deferrals()) != 0 || len(d.Inbox()) != 0 {
		t.Fatal("logs not cleared")
	}
	// Greylist state survived: retry after threshold passes.
	e.clock.Advance(301 * time.Second)
	if r := e.send("a@b.example", "bob@foo.net"); r.Outcome != smtpclient.Delivered {
		t.Fatalf("retry after ClearLogs = %+v", r)
	}
}

func TestCloseRemovesZoneAndListeners(t *testing.T) {
	e := newEnv(t)
	d, err := New(baseConfig(DefenseNone), e.deps())
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := e.resolver.LookupMX("foo.net"); err == nil {
		t.Fatal("zone still resolvable after Close")
	}
	if e.net.Listening("10.0.0.1:25") {
		t.Fatal("listener still bound after Close")
	}
	// The address can be reused by a fresh deployment.
	d2 := e.deploy(t, baseConfig(DefenseNone))
	_ = d2
}
