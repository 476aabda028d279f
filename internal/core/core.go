// Package core ties the substrates together into the object the whole
// reproduction revolves around: a Domain — a mail domain deployed on the
// simulated Internet with a configurable combination of the paper's two
// defenses:
//
//   - Nolisting (Section II): the domain's DNS zone advertises a primary
//     MX whose host resolves but runs no SMTP listener, plus a working
//     secondary. Compliant senders fall through to the secondary; primary-
//     only bots fail.
//   - Greylisting (Section II): the working server defers the first
//     delivery attempt of every unknown (client IP, sender, recipient)
//     triplet with "451 4.7.1" and accepts a retry after the threshold.
//
// The recipient check deliberately runs BEFORE greylisting, because, as
// Section II notes, "email servers are typically configured to refuse
// messages for non-existing recipients before applying greylisting" —
// which is exactly what makes greylisting adoption unmeasurable from the
// outside.
//
// A Domain records every delivery, deferral and rejection with virtual
// timestamps; the lab (Table II, Figures 3-4), the benign-mail experiments
// (Figure 5, Table III) and the examples all read those logs.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dnsserver"
	"repro/internal/greylist"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nolist"
	"repro/internal/simtime"
	"repro/internal/smtpproto"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// Defense selects which protections a Domain deploys.
type Defense int

// Defense combinations, as compared throughout the paper's evaluation.
const (
	DefenseNone Defense = iota
	DefenseNolisting
	DefenseGreylisting
	// DefenseBoth is the paper's Section VI recommendation: "using both
	// techniques together is a very effective way to protect against
	// the majority of spam".
	DefenseBoth
)

// String implements fmt.Stringer.
func (d Defense) String() string {
	switch d {
	case DefenseNone:
		return "none"
	case DefenseNolisting:
		return "nolisting"
	case DefenseGreylisting:
		return "greylisting"
	case DefenseBoth:
		return "nolisting+greylisting"
	default:
		return fmt.Sprintf("Defense(%d)", int(d))
	}
}

// Nolisting reports whether the defense includes nolisting.
func (d Defense) Nolisting() bool { return d == DefenseNolisting || d == DefenseBoth }

// Greylisting reports whether the defense includes greylisting.
func (d Defense) Greylisting() bool { return d == DefenseGreylisting || d == DefenseBoth }

// Config describes a defended domain.
type Config struct {
	// Domain is the mail domain ("foo.net").
	Domain string
	// PrimaryIP is the primary MX host's address. Under nolisting this
	// host has no SMTP listener; otherwise it runs one.
	PrimaryIP string
	// SecondaryIP is the secondary MX host's address; it always runs a
	// listener. Empty means a single-MX domain (and is incompatible
	// with nolisting).
	SecondaryIP string
	// Defense selects the protections.
	Defense Defense
	// GreylistPolicy configures greylisting when enabled; the zero
	// value means greylist.DefaultPolicy().
	GreylistPolicy greylist.Policy
	// BypassStages are evaluated ahead of the triplet check, after the
	// engine's own whitelist stage (SPF re-keying, DNSWL, rDNS — see
	// internal/bypass). Empty means the default whitelist-only chain.
	BypassStages []greylist.Stage
	// Users lists the valid local parts ("alice"); empty accepts any
	// recipient. Unknown recipients get "550 5.1.1" before greylisting.
	Users []string
	// UnprotectedRecipients are local parts exempt from greylisting —
	// the paper's postmaster control addresses.
	UnprotectedRecipients []string
	// TTL for the zone records; 0 means 300.
	TTL uint32
}

// Deps are the environment a Domain deploys into.
type Deps struct {
	// Net is the simulated Internet.
	Net *netsim.Network
	// DNS is the authoritative server to register the zone with.
	DNS *dnsserver.Server
	// Clock stamps all events; nil means real time.
	Clock simtime.Clock
}

// Delivery is one accepted message.
type Delivery struct {
	// At is the acceptance time.
	At time.Time
	// ClientIP, Sender, Recipients, Data mirror the SMTP envelope.
	ClientIP   string
	Sender     string
	Recipients []string
	Data       []byte
	// Host is the MX host name that accepted the message.
	Host string
}

// Deferral is one greylisting deferral event.
type Deferral struct {
	At      time.Time
	Triplet greylist.Triplet
	// WaitRemaining is how long until a retry would have been accepted.
	WaitRemaining time.Duration
}

// Rejection is one permanently rejected recipient.
type Rejection struct {
	At        time.Time
	ClientIP  string
	Sender    string
	Recipient string
	Code      int
}

// Domain is a deployed, defended mail domain.
type Domain struct {
	cfg   Config
	deps  Deps
	clock simtime.Clock

	greylister *greylist.Greylister
	users      map[string]bool

	mu         sync.Mutex
	inbox      []Delivery
	deferrals  []Deferral
	rejections []Rejection

	servers   []*smtpserver.Server
	listeners []*netsim.Listener
}

// Hostnames used for the MX records.
func primaryHost(domain string) string   { return "mx1." + domain }
func secondaryHost(domain string) string { return "mx2." + domain }

// PrimaryHost returns the primary MX host name of the domain.
func (d *Domain) PrimaryHost() string { return primaryHost(d.cfg.Domain) }

// SecondaryHost returns the secondary MX host name ("" for single-MX).
func (d *Domain) SecondaryHost() string {
	if d.cfg.SecondaryIP == "" {
		return ""
	}
	return secondaryHost(d.cfg.Domain)
}

// MXHosts returns the domain's MX host names in priority order.
func (d *Domain) MXHosts() []string {
	hosts := []string{d.PrimaryHost()}
	if s := d.SecondaryHost(); s != "" {
		hosts = append(hosts, s)
	}
	return hosts
}

// New deploys a defended domain: registers its DNS zone and starts SMTP
// listeners on the live hosts.
func New(cfg Config, deps Deps) (*Domain, error) {
	if cfg.Domain == "" {
		return nil, errors.New("core: empty domain")
	}
	if deps.Net == nil || deps.DNS == nil {
		return nil, errors.New("core: Net and DNS are required")
	}
	if cfg.PrimaryIP == "" {
		return nil, fmt.Errorf("core: %s: primary IP required", cfg.Domain)
	}
	if cfg.Defense.Nolisting() && cfg.SecondaryIP == "" {
		return nil, fmt.Errorf("core: %s: nolisting requires a secondary MX", cfg.Domain)
	}
	clock := deps.Clock
	if clock == nil {
		clock = simtime.Real{}
	}

	d := &Domain{cfg: cfg, deps: deps, clock: clock}
	if len(cfg.Users) > 0 {
		d.users = make(map[string]bool, len(cfg.Users))
		for _, u := range cfg.Users {
			d.users[strings.ToLower(u)] = true
		}
	}

	if cfg.Defense.Greylisting() {
		policy := cfg.GreylistPolicy
		if policy == (greylist.Policy{}) {
			policy = greylist.DefaultPolicy()
		}
		d.greylister = greylist.New(policy, clock)
		for _, u := range cfg.UnprotectedRecipients {
			d.greylister.Whitelist().AddRecipient(strings.ToLower(u) + "@" + cfg.Domain)
		}
		if len(cfg.BypassStages) > 0 {
			stages := append([]greylist.Stage{greylist.WhitelistStage(d.greylister.Whitelist())},
				cfg.BypassStages...)
			d.greylister.SetChain(greylist.NewChain(stages...))
		}
	}

	if err := d.registerZone(); err != nil {
		return nil, err
	}
	if err := d.startServers(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Domain) registerZone() error {
	cfg := d.cfg
	if cfg.Defense.Nolisting() {
		dep := nolist.Deployment{
			Domain:   cfg.Domain,
			DeadHost: primaryHost(cfg.Domain), DeadIP: cfg.PrimaryIP,
			LiveHost: secondaryHost(cfg.Domain), LiveIP: cfg.SecondaryIP,
			TTL: cfg.TTL,
		}
		zone, err := dep.Zone()
		if err != nil {
			return err
		}
		d.deps.DNS.AddZone(zone)
		return nil
	}
	// Conventional layout: primary live, optional secondary live.
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = 300
	}
	zone := dnsserver.NewZone(cfg.Domain)
	if err := addMX(zone, cfg.Domain, primaryHost(cfg.Domain), cfg.PrimaryIP, 0, ttl); err != nil {
		return err
	}
	if cfg.SecondaryIP != "" {
		if err := addMX(zone, cfg.Domain, secondaryHost(cfg.Domain), cfg.SecondaryIP, 15, ttl); err != nil {
			return err
		}
	}
	d.deps.DNS.AddZone(zone)
	return nil
}

func (d *Domain) startServers() error {
	cfg := d.cfg
	type mx struct {
		host string
		ip   string
	}
	var live []mx
	if cfg.Defense.Nolisting() {
		live = []mx{{secondaryHost(cfg.Domain), cfg.SecondaryIP}}
	} else {
		live = []mx{{primaryHost(cfg.Domain), cfg.PrimaryIP}}
		if cfg.SecondaryIP != "" {
			live = append(live, mx{secondaryHost(cfg.Domain), cfg.SecondaryIP})
		}
	}
	for _, m := range live {
		addr := m.ip + ":25"
		l, err := d.deps.Net.Listen(addr)
		if err != nil {
			return fmt.Errorf("core: %s: %w", cfg.Domain, err)
		}
		host := m.host
		srv := smtpserver.New(smtpserver.Config{
			Hostname: host,
			Clock:    d.clock,
			Hooks: smtpserver.Hooks{
				OnRcptTraced: d.onRcpt,
				OnMessage:    d.onMessage(host),
			},
		})
		d.servers = append(d.servers, srv)
		d.listeners = append(d.listeners, l)
		go srv.Serve(l)
	}
	return nil
}

// onRcpt enforces recipient validity first (the pre-greylisting 550 the
// paper leans on in Section II), then greylisting. tr is the session's
// trace handle — nil on untraced sessions — so traced runs see the
// greylist verdict (triplet key, reason, wait state) inline with the
// SMTP conversation.
func (d *Domain) onRcpt(tr *trace.Trace, clientIP, sender, recipient string) *smtpproto.Reply {
	if smtpproto.DomainOf(recipient) != strings.ToLower(d.cfg.Domain) {
		return d.reject(clientIP, sender, recipient, 550, "5.7.1", "Relay access denied")
	}
	if d.users != nil {
		local := strings.ToLower(recipient[:strings.LastIndexByte(recipient, '@')])
		if !d.users[local] && !d.isUnprotected(local) {
			return d.reject(clientIP, sender, recipient, 550, "5.1.1", "No such user")
		}
	}
	if d.greylister == nil {
		return nil
	}
	trip := greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: recipient}
	verdict := d.greylister.CheckTraced(trip, tr)
	if verdict.Decision == greylist.Pass {
		return nil
	}
	d.mu.Lock()
	d.deferrals = append(d.deferrals, Deferral{
		At:            d.clock.Now(),
		Triplet:       greylist.Triplet{ClientIP: clientIP, Sender: sender, Recipient: recipient},
		WaitRemaining: verdict.WaitRemaining,
	})
	d.mu.Unlock()
	r := smtpproto.NewReply(451, "4.7.1", "Greylisted, please try again later")
	return &r
}

func (d *Domain) isUnprotected(local string) bool {
	for _, u := range d.cfg.UnprotectedRecipients {
		if strings.EqualFold(u, local) {
			return true
		}
	}
	return false
}

func (d *Domain) reject(clientIP, sender, recipient string, code int, enhanced, text string) *smtpproto.Reply {
	d.mu.Lock()
	d.rejections = append(d.rejections, Rejection{
		At: d.clock.Now(), ClientIP: clientIP, Sender: sender, Recipient: recipient, Code: code,
	})
	d.mu.Unlock()
	r := smtpproto.NewReply(code, enhanced, text)
	return &r
}

func (d *Domain) onMessage(host string) func(*smtpserver.Envelope) *smtpproto.Reply {
	return func(env *smtpserver.Envelope) *smtpproto.Reply {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.inbox = append(d.inbox, Delivery{
			At:         env.ReceivedAt,
			ClientIP:   env.ClientIP,
			Sender:     env.Sender,
			Recipients: env.Recipients,
			Data:       env.Data,
			Host:       host,
		})
		return nil
	}
}

// Inbox returns a copy of all accepted deliveries.
func (d *Domain) Inbox() []Delivery {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Delivery(nil), d.inbox...)
}

// InboxTo returns accepted deliveries addressed to the given recipient.
func (d *Domain) InboxTo(recipient string) []Delivery {
	var out []Delivery
	for _, del := range d.Inbox() {
		for _, r := range del.Recipients {
			if strings.EqualFold(r, recipient) {
				out = append(out, del)
				break
			}
		}
	}
	return out
}

// Deferrals returns a copy of all greylisting deferral events.
func (d *Domain) Deferrals() []Deferral {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Deferral(nil), d.deferrals...)
}

// Rejections returns a copy of all permanent recipient rejections.
func (d *Domain) Rejections() []Rejection {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Rejection(nil), d.rejections...)
}

// Greylister exposes the greylisting engine (nil when disabled).
func (d *Domain) Greylister() *greylist.Greylister { return d.greylister }

// Register exports the domain's observability surface into reg: the
// greylisting engine (when the defense includes greylisting) and each MX
// host's SMTP server, labelled host="mx1.domain" etc. The shared DNS
// server in Deps is not registered here — it serves many domains, so the
// owner of the registry decides whether to include it.
func (d *Domain) Register(reg *metrics.Registry) {
	if d.greylister != nil {
		d.greylister.Register(reg)
	}
	for _, srv := range d.servers {
		srv.Register(reg, "host", srv.Hostname())
	}
}

// Config returns the domain's configuration.
func (d *Domain) Config() Config { return d.cfg }

// ClearLogs resets the recorded deliveries/deferrals/rejections (between
// experiment phases) without touching greylisting state.
func (d *Domain) ClearLogs() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inbox = nil
	d.deferrals = nil
	d.rejections = nil
}

// Close stops the SMTP servers and removes the zone.
func (d *Domain) Close() error {
	// Close the listeners directly: the Serve goroutines may not have
	// registered them with their servers yet.
	for _, l := range d.listeners {
		l.Close()
	}
	d.listeners = nil
	for _, s := range d.servers {
		s.Close()
	}
	d.servers = nil
	d.deps.DNS.RemoveZone(d.cfg.Domain)
	return nil
}

// addMX registers an MX record and its host's A record in zone.
func addMX(zone *dnsserver.Zone, domain, host, ip string, pref uint16, ttl uint32) error {
	a, err := dnsmsg.ParseIPv4(ip)
	if err != nil {
		return fmt.Errorf("core: %s: %w", domain, err)
	}
	if err := zone.Add(dnsmsg.RR{Name: domain, Type: dnsmsg.TypeMX, TTL: ttl,
		Data: dnsmsg.MX{Preference: pref, Host: host}}); err != nil {
		return err
	}
	return zone.Add(dnsmsg.RR{Name: host, Type: dnsmsg.TypeA, TTL: ttl, Data: a})
}
