package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// A workload is one traffic mix. Every input is drawn from the run's
// seed; greylistd only ever sees the generated SMTP traffic.
//
// Traffic is cut into visits: one TCP connection from one client IP
// carrying a bounded number of mail transactions ("sessions" in every
// metric name) before QUIT or an abrupt close. Each of the driver's two
// lanes owns a disjoint set of client keys (the greylist's client
// component: an IP, or an SPF domain on a rekey), and a lane runs one
// visit at a time, so every client key sees its transactions in one
// fixed order whatever the timing. That is what lets the oracle model
// below predict every verdict exactly.

const (
	// destDomain is the domain greylistd receives mail for.
	destDomain = "dest.example"
	// dnswlOrigin is the DNS whitelist zone greylistd's -dnswl queries.
	dnswlOrigin = "wl.perfbench.test"
	// threshold is greylistd's -threshold for every workload.
	threshold = time.Second
	// retryMargin is how long after the threshold a relay retries.
	retryMargin = 300 * time.Millisecond
)

// rcptExp is the oracle's expectation for one RCPT.
type rcptExp struct {
	pass   bool
	reason string // the greylist_verdicts_total reason label
	stage  string // bypass-chain stage that decided ("" = none)
	wal    bool   // the check journals one WAL record
}

// txn is one mail transaction: MAIL, its RCPTs and either DATA with a
// body or RSET. exp is filled by the lane's model when the transaction
// goes on the wire, not when it is generated, so a transaction cut off
// by a phase deadline never enters the model.
type txn struct {
	sender string
	domain string // sender domain
	// oneShot marks triplets that never come back (a bot's fresh sender):
	// the model decides them without remembering them, which keeps the
	// driver's heap, and so its GC pauses, from growing with the run.
	oneShot bool
	rcpts   []string
	dataLen int // body bytes when the transaction carries DATA
	exp     []rcptExp
}

// expectsData reports whether the transaction should carry DATA: it
// has a body and the oracle expects at least one recipient accepted.
func (t *txn) expectsData() bool {
	if t.dataLen == 0 {
		return false
	}
	for _, e := range t.exp {
		if e.pass {
			return true
		}
	}
	return false
}

// visit is one connection's worth of transactions.
type visit struct {
	ip   string
	txns []*txn
	quit bool // QUIT at the end (false: drop the connection)
}

// model is the reference greylisting policy (greylistd's defaults with
// the benchmark's short threshold) for one lane's client keys. It
// assumes what the driver guarantees: a pending triplet is retried only
// after the threshold, records never expire within a run, and every
// transaction's RCPTs are all new, all retries or all known, which
// makes the engine's batched decisions equal to sequential ones.
type model struct {
	autoWL  int
	pending map[string]bool
	passed  map[string]bool
	clients map[string]int
	chain   *chainFacts
}

func newModel(autoWL int, chain *chainFacts) *model {
	return &model{
		autoWL:  autoWL,
		pending: make(map[string]bool),
		passed:  make(map[string]bool),
		clients: make(map[string]int),
		chain:   chain,
	}
}

// check decides one RCPT exactly as greylistd will and updates the
// model. ip is the connecting client, domain the sender's domain; a
// oneShot triplet is not recorded as pending.
func (m *model) check(ip, sender, domain, rcpt string, oneShot bool) rcptExp {
	ck := ip
	stage := ""
	switch m.chain.eval(ip, domain) {
	case "spf":
		ck, stage = domain, "spf"
	case "dnswl":
		return rcptExp{pass: true, reason: "dnswl-listed", stage: "dnswl"}
	case "rdns":
		return rcptExp{pass: true, reason: "rdns-mailserver", stage: "rdns"}
	}
	if m.autoWL > 0 && m.clients[ck] >= m.autoWL {
		return rcptExp{pass: true, reason: "auto-whitelisted", stage: stage, wal: true}
	}
	key := ck + "\x00" + sender + "\x00" + rcpt
	if m.passed[key] {
		m.clients[ck]++
		return rcptExp{pass: true, reason: "known-triplet", stage: stage, wal: true}
	}
	if m.pending[key] {
		delete(m.pending, key)
		m.passed[key] = true
		m.clients[ck]++
		return rcptExp{pass: true, reason: "retry-accepted", stage: stage, wal: true}
	}
	if !oneShot {
		m.pending[key] = true
	}
	return rcptExp{pass: false, reason: "first-seen", stage: stage, wal: true}
}

// seedPassed records a triplet as passed with one client credit — the
// state a fixture's first contact plus accepted retry leaves behind.
func (m *model) seedPassed(ck, sender, rcpt string) {
	m.passed[ck+"\x00"+sender+"\x00"+rcpt] = true
	m.clients[ck]++
}

// decide fills t.exp from the model.
func (m *model) decide(ip string, t *txn) {
	t.exp = t.exp[:0]
	for _, r := range t.rcpts {
		t.exp = append(t.exp, m.check(ip, t.sender, t.domain, r, t.oneShot))
	}
}

// chainFacts is what the fixture DNS zone says about each client: the
// bypass chain's answer (greylistd's order: spf, dnswl, rdns; first
// match wins) computed from the zone's own inputs.
type chainFacts struct {
	spf   map[string]map[string]bool // sender domain -> authorized IPs
	dnswl map[string]bool
	mail  map[string]string // IP -> PTR name
}

func newChainFacts() *chainFacts {
	return &chainFacts{
		spf:   make(map[string]map[string]bool),
		dnswl: make(map[string]bool),
		mail:  make(map[string]string),
	}
}

// eval returns the deciding stage: "spf" (rekey), "dnswl", "rdns" or "".
func (c *chainFacts) eval(ip, domain string) string {
	if c.spf[domain][ip] {
		return "spf"
	}
	if c.dnswl[ip] {
		return "dnswl"
	}
	if name, ok := c.mail[ip]; ok && looksLikeMailServer(name) {
		return "rdns"
	}
	return ""
}

// looksLikeMailServer mirrors the rDNS stage's heuristic for the names
// the fixture publishes: a pool token vetoes, a mail token qualifies.
func looksLikeMailServer(name string) bool {
	for _, tok := range []string{"dyn", "dial", "dsl", "pool", "cable", "dhcp", "adsl", "broadband", "ppp", "client", "cust"} {
		if strings.Contains(name, tok) {
			return false
		}
	}
	for _, tok := range []string{"mail", "smtp", "mx", "relay", "mta", "out", "postfix", "exim"} {
		if strings.Contains(name, tok) {
			return true
		}
	}
	return false
}

// ipAt maps an index into a 127/16 block to a bindable loopback address
// (last octet 1..250).
func ipAt(block, i int) string {
	return fmt.Sprintf("127.%d.%d.%d", block, i/250, i%250+1)
}

// newRand derives an independent deterministic stream for one purpose.
func newRand(seed uint64, purpose string, n int) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h^uint64(n)*0x9e3779b97f4a7c15))
}

// stream produces one lane's fresh (scheduled) visits.
type stream interface {
	next() *visit
}

// workload holds everything generated from the seed for one run.
type workload struct {
	name    string
	seed    uint64
	chain   *chainFacts
	models  [2]*model
	streams [2]stream
	actors  [2][]*actor
	// warm holds each lane's visits sent before timing starts (steady
	// warms the chain caches of its regular clients).
	warm [2][]*visit
	// nominal is the open-loop phase's fresh-session rate (both lanes
	// together), about half of greylistd's capacity on the reference
	// host.
	nominal float64
	// capRate sizes the closed-loop phases: the sessions per second of
	// server CPU greylistd sustained on the reference host.
	capRate float64
	// window bounds the transactions a lane pipelines on one connection.
	window  int
	fixture *stateFixture
}

// buildWorkload generates a workload's inputs from seed. scale shrinks
// steady's recovered table (1 in runs, smaller in tests).
func buildWorkload(name string, seed uint64, scale float64) (*workload, error) {
	w := &workload{name: name, seed: seed, chain: newChainFacts()}
	for i := range w.models {
		w.models[i] = newModel(5, w.chain)
	}
	switch name {
	case "campaign":
		w.buildCampaign()
	case "steady":
		w.buildSteady(scale)
	case "probe":
		w.buildProbe()
	default:
		return nil, fmt.Errorf("unknown workload %q (campaign, steady, probe)", name)
	}
	return w, nil
}

// ---- campaign ----------------------------------------------------------

const (
	relayPlain = iota
	relaySPF
	relayDNSWL
	relayRDNS
)

// actor is one ham relay in the campaign: a strict sequence of first
// contacts and threshold-delayed retries, self-paced rather than
// scheduled, because a retry may only follow its first contact's reply.
type actor struct {
	id     int
	kind   int
	ips    []string
	domain string
	rng    *rand.Rand
	ready  time.Time
	// retry holds the transactions of the last visit that got
	// deferrals; the actor's next visit resends them.
	retry  []*txn
	nextID int
}

func (a *actor) nextVisit() *visit {
	ip := a.ips[a.rng.IntN(len(a.ips))]
	v := &visit{ip: ip, quit: true}
	if a.retry != nil {
		for _, t := range a.retry {
			v.txns = append(v.txns, &txn{sender: t.sender, domain: t.domain, rcpts: t.rcpts, dataLen: t.dataLen})
		}
		a.retry = nil
		return v
	}
	n := 1 + a.rng.IntN(3)
	for i := 0; i < n; i++ {
		a.nextID++
		t := &txn{
			sender:  fmt.Sprintf("s%d@%s", a.nextID, a.domain),
			domain:  a.domain,
			dataLen: 1024 + a.rng.IntN(8*1024),
		}
		for r := 1 + a.rng.IntN(3); r > 0; r-- {
			t.rcpts = append(t.rcpts, fmt.Sprintf("u%d@%s", a.rng.IntN(50000), destDomain))
		}
		t.rcpts = dedupe(t.rcpts)
		v.txns = append(v.txns, t)
	}
	return v
}

// finished schedules the actor's next visit after v's replies were all
// read at now.
func (a *actor) finished(v *visit, now time.Time) {
	var deferred []*txn
	for _, t := range v.txns {
		if len(t.exp) == 0 {
			continue // never sent
		}
		var keep []string
		for i, e := range t.exp {
			if !e.pass {
				keep = append(keep, t.rcpts[i])
			}
		}
		if len(keep) > 0 {
			deferred = append(deferred, &txn{sender: t.sender, domain: t.domain, rcpts: keep, dataLen: t.dataLen})
		}
	}
	if len(deferred) > 0 {
		a.retry = deferred
		a.ready = now.Add(threshold + retryMargin)
		return
	}
	a.ready = now.Add(time.Duration(200+a.rng.IntN(800)) * time.Millisecond)
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// botStream is the spam side of the campaign: a rotating bot pool, a
// fresh sender per session, 4-32 pipelined RCPTs, no retries, and one
// connection in three dropped instead of QUIT.
type botStream struct {
	lane int
	rng  *rand.Rand
	n    int
}

const (
	botBurst = 400 // visits per lane before the campaign rotates its pool
	botPool  = 250 // bot IPs active per campaign
)

func (b *botStream) next() *visit {
	burst := b.n / botBurst
	b.n++
	ip := ipAt(64+burst%48, b.rng.IntN(botPool)*2+b.lane)
	v := &visit{ip: ip, quit: b.rng.IntN(3) != 0}
	for k := 1 + b.rng.IntN(2); k > 0; k-- {
		domain := fmt.Sprintf("%x.bulk%d.example", b.rng.Uint32(), burst)
		t := &txn{sender: fmt.Sprintf("b%dx%d@%s", b.lane, b.n, domain), domain: domain, oneShot: true}
		for r := 4 + b.rng.IntN(29); r > 0; r-- {
			t.rcpts = append(t.rcpts, fmt.Sprintf("u%d@%s", b.rng.IntN(50000), destDomain))
		}
		t.rcpts = dedupe(t.rcpts)
		v.txns = append(v.txns, t)
	}
	return v
}

func (w *workload) buildCampaign() {
	w.nominal = 1000
	w.capRate = 4000
	w.window = 4
	const relays = 240
	for i := 0; i < relays; i++ {
		a := &actor{id: i, kind: i % 4, domain: fmt.Sprintf("corp%d.example", i), rng: newRand(w.seed, "actor", i)}
		switch a.kind {
		case relaySPF:
			set := make(map[string]bool)
			for k := 0; k < 4; k++ {
				ip := fmt.Sprintf("127.2.%d.%d", i, k+1)
				a.ips = append(a.ips, ip)
				set[ip] = true
			}
			w.chain.spf[a.domain] = set
		default:
			a.ips = []string{ipAt(1, i)}
		}
		switch a.kind {
		case relayDNSWL:
			w.chain.dnswl[a.ips[0]] = true
		case relayRDNS:
			w.chain.mail[a.ips[0]] = fmt.Sprintf("smtp%d.corp%d.example", i%3, i)
		case relayPlain:
			w.chain.mail[a.ips[0]] = fmt.Sprintf("gw%d.corp%d.example", i%3, i)
		}
		// Stagger the relays' first contacts over the first second.
		a.ready = time.Time{}.Add(time.Duration(a.rng.IntN(1000)) * time.Millisecond)
		w.actors[i%2] = append(w.actors[i%2], a)
	}
	// Half the bot pool has a dynamic-pool PTR name; the rest has none.
	for burst := 0; burst < 48; burst++ {
		for k := 0; k < botPool*2; k += 2 {
			ip := ipAt(64+burst, k)
			if k%4 == 0 {
				w.chain.mail[ip] = "c-" + strings.ReplaceAll(ip, ".", "-") + ".dyn.isp.example"
			}
		}
	}
	for lane := 0; lane < 2; lane++ {
		w.streams[lane] = &botStream{lane: lane, rng: newRand(w.seed, "bots", lane)}
	}
}

// ---- steady ------------------------------------------------------------

// steadyStream models a restarted long-running MX: correspondents whose
// triplets have all passed. Half the visits come from regulars (hot
// clients past the auto-whitelist), half from the long tail of the
// recovered table (each tail client used once, so its checks read the
// passed table). Sessions carry 1-2 RCPTs and 1-9 KiB of DATA; a
// connection QUITs after each session with probability 1/5.
type steadyStream struct {
	lane int
	rng  *rand.Rand
	fx   *stateFixture
	tail []int // this lane's tail clients in visit order
	used int
}

func (s *steadyStream) next() *visit {
	var c int
	regular := s.rng.IntN(2) == 0
	if regular || s.used >= len(s.tail) {
		c = s.rng.IntN(s.fx.hot/2)*2 + s.lane
	} else {
		c = s.tail[s.used]
		s.used++
	}
	v := &visit{ip: s.fx.clientIP(c), quit: true}
	for {
		v.txns = append(v.txns, s.fx.txnFor(c, s.rng))
		if !regular || s.rng.IntN(5) == 0 || len(v.txns) == 16 {
			return v
		}
	}
}

func (w *workload) buildSteady(scale float64) {
	w.nominal = 2000
	w.capRate = 7000
	w.window = 1
	clients := int(90000 * scale)
	fx := newStateFixture("steady", w.seed, clients, min(4096, clients/4))
	w.fixture = fx
	fx.seedModels(w.models)
	for lane := 0; lane < 2; lane++ {
		rng := newRand(w.seed, "steady", lane)
		var tail []int
		for c := fx.hot + lane; c < fx.clients; c += 2 {
			tail = append(tail, c)
		}
		rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		w.streams[lane] = &steadyStream{lane: lane, rng: rng, fx: fx, tail: tail}
		// Warm the chain caches of the lane's regulars: one one-RCPT
		// session each, no DATA.
		for c := lane; c < fx.hot; c += 2 {
			t := fx.txnFor(c, rng)
			t.rcpts, t.dataLen = t.rcpts[:1], 0
			w.warm[lane] = append(w.warm[lane], &visit{ip: fx.clientIP(c), quit: true, txns: []*txn{t}})
		}
	}
}

// ---- probe -------------------------------------------------------------

// probeStream is the per-RCPT hot path with the least dilution:
// pipelined 16-RCPT volleys of passed triplets from a handful of
// clients over reused connections, no DATA.
type probeStream struct {
	lane int
	rng  *rand.Rand
	fx   *stateFixture
}

func (p *probeStream) next() *visit {
	c := p.rng.IntN(p.fx.clients/2)*2 + p.lane
	v := &visit{ip: p.fx.clientIP(c), quit: true}
	for i := 0; i < 32; i++ {
		t := p.fx.txnFor(c, p.rng)
		t.dataLen = 0
		v.txns = append(v.txns, t)
	}
	return v
}

func (w *workload) buildProbe() {
	w.nominal = 6000
	w.capRate = 15000
	w.window = 8
	fx := newStateFixture("probe", w.seed, 8, 0)
	w.fixture = fx
	fx.seedModels(w.models)
	for lane := 0; lane < 2; lane++ {
		w.streams[lane] = &probeStream{lane: lane, rng: newRand(w.seed, "probe", lane), fx: fx}
	}
}
