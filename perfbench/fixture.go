package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dnsbl"
	"repro/internal/dnsmsg"
	"repro/internal/dnsserver"
	"repro/internal/greylist"
	"repro/internal/simtime"
	"repro/internal/spf"
)

// startDNS publishes the workload's chain facts on a loopback UDP
// authoritative server: SPF TXT records for relay domains, the DNSWL
// zone, and PTR names (mail-server-like for some relays, dynamic-pool
// for half the bots). Every other name answers NXDOMAIN from a root
// zone, so a lookup never fails. It returns the server, its address and
// a hash of the published records.
func startDNS(c *chainFacts) (*dnsserver.Server, string, string, error) {
	srv := dnsserver.New()
	var recs []string
	srv.AddZone(dnsserver.NewZone("."))
	txt := dnsserver.NewZone("example")
	for domain, ips := range c.spf {
		var terms []string
		for ip := range ips {
			terms = append(terms, "ip4:"+ip)
		}
		sort.Strings(terms)
		terms = append(terms, "-all")
		txt.MustAdd(dnsmsg.RR{Name: domain, Type: dnsmsg.TypeTXT, TTL: 3600, Data: spf.Record(terms...)})
		recs = append(recs, "TXT "+domain+" "+strings.Join(terms, " "))
	}
	srv.AddZone(txt)
	wl := dnsbl.New(dnswlOrigin, srv, nil)
	for ip := range c.dnswl {
		if err := wl.Add(ip); err != nil {
			return nil, "", "", err
		}
		recs = append(recs, "DNSWL "+ip)
	}
	ptr := dnsserver.NewZone("in-addr.arpa")
	for ip, name := range c.mail {
		rev, err := dnsbl.ReverseIPv4(ip)
		if err != nil {
			return nil, "", "", err
		}
		ptr.MustAdd(dnsmsg.RR{Name: rev + ".in-addr.arpa", Type: dnsmsg.TypePTR, TTL: 3600, Data: dnsmsg.PTR{Target: name}})
		recs = append(recs, "PTR "+ip+" "+name)
	}
	srv.AddZone(ptr)
	addr, err := srv.ListenAndServeUDP("127.0.0.1:0")
	if err != nil {
		return nil, "", "", err
	}
	return srv, addr.String(), hashLines(recs), nil
}

func hashLines(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stateFixture is a recovered greylist state: a checkpoint of passed
// triplets plus a WAL tail to replay, built through the library's public
// API on a simulated clock anchored at wall-clock now. Clients below hot
// have enough deliveries to be auto-whitelisted; the rest have 2-4.
type stateFixture struct {
	name    string
	clients int
	hot     int
	k       []uint8 // passed triplets per client
	// rcpt counts per generated session
	rcptMin, rcptMax int
	// WAL tail: new pending triplets and auto-whitelist passes
	tailPending, tailTouches int

	dir          string // pristine checkpoint and log
	hash         string
	replayed     int
	wantPending  int
	wantPassed   int
	buildSeconds float64
}

func newStateFixture(name string, seed uint64, clients, hot int) *stateFixture {
	f := &stateFixture{name: name, clients: clients, hot: hot, k: make([]uint8, clients)}
	rng := newRand(seed, "fixture-"+name, 0)
	for c := range f.k {
		switch {
		case name == "probe":
			f.k[c] = 32
		case c < hot:
			f.k[c] = 5
		default:
			f.k[c] = uint8(2 + rng.IntN(3))
		}
	}
	if name == "probe" {
		f.rcptMin, f.rcptMax = 16, 16
	} else {
		f.rcptMin, f.rcptMax = 1, 2
		f.tailPending, f.tailTouches = clients/7, clients/3
	}
	return f
}

func (f *stateFixture) clientIP(c int) string {
	if f.name == "probe" {
		return ipAt(8, c)
	}
	return ipAt(16+c/62500, c%62500)
}

func (f *stateFixture) sender(c int) string {
	return fmt.Sprintf("c%d@corp%d.example", c, c%2000)
}

func (f *stateFixture) rcpt(c, j int) string {
	return fmt.Sprintf("u%d.%d@%s", c, j, destDomain)
}

// txnFor draws one session from client c's passed triplets.
func (f *stateFixture) txnFor(c int, rng *rand.Rand) *txn {
	k := int(f.k[c])
	n := f.rcptMin + rng.IntN(f.rcptMax-f.rcptMin+1)
	t := &txn{sender: f.sender(c), domain: fmt.Sprintf("corp%d.example", c%2000), dataLen: 1024 + rng.IntN(8*1024)}
	for _, j := range rng.Perm(k)[:n] {
		t.rcpts = append(t.rcpts, f.rcpt(c, j))
	}
	return t
}

// seedModels files every passed triplet under the lane owning its
// client (client index parity).
func (f *stateFixture) seedModels(models [2]*model) {
	lines := make([]string, 0, f.clients)
	for c := 0; c < f.clients; c++ {
		ip := f.clientIP(c)
		// The fixture's retries promote triplets until the client
		// reaches the auto-whitelist; later retries pass as
		// auto-whitelisted and leave their triplets pending.
		m := models[c%2]
		for j := 0; j < int(f.k[c]); j++ {
			if m.clients[ip] < m.autoWL {
				m.seedPassed(ip, f.sender(c), f.rcpt(c, j))
			} else {
				m.pending[ip+"\x00"+f.sender(c)+"\x00"+f.rcpt(c, j)] = true
			}
		}
		lines = append(lines, fmt.Sprintf("%s %s %d", ip, f.sender(c), f.k[c]))
	}
	lines = append(lines, fmt.Sprintf("tail %d %d", f.tailPending, f.tailTouches))
	f.hash = hashLines(lines)
}

// build writes the pristine checkpoint and WAL tail into dir: first
// contacts and accepted retries for every passed triplet, a compaction,
// then the tail (new pending triplets from clients the traffic never
// uses, and auto-whitelist passes of regulars), an fsync, and a copy of
// both files taken while the log is still open — the image a crash
// right after that fsync leaves.
func (f *stateFixture) build(dir string, policy greylist.Policy) error {
	start := time.Now()
	f.dir = dir
	work := filepath.Join(dir, "build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	sim := simtime.NewSim(time.Now().Add(-time.Hour))
	g := greylist.New(policy, sim)
	wal, _, err := greylist.OpenWAL(greylist.WALConfig{
		Path:           filepath.Join(work, "greylist.wal"),
		CheckpointPath: filepath.Join(work, "greylist.db"),
		Sync:           greylist.SyncNone,
		CompactBytes:   -1,
	}, g)
	if err != nil {
		return fmt.Errorf("fixture wal: %w", err)
	}
	defer wal.Close()
	var ts []greylist.Triplet
	var out []greylist.Verdict
	pass := func() {
		for c := 0; c < f.clients; c++ {
			ts = ts[:0]
			for j := 0; j < int(f.k[c]); j++ {
				ts = append(ts, greylist.Triplet{ClientIP: f.clientIP(c), Sender: f.sender(c), Recipient: f.rcpt(c, j)})
			}
			out = g.CheckBatch(ts, out)
		}
	}
	pass()
	sim.Advance(policy.Threshold + time.Second)
	pass()
	if err := wal.Compact(); err != nil {
		return fmt.Errorf("fixture checkpoint: %w", err)
	}
	sim.Advance(time.Minute)
	for i := 0; i < f.tailPending; i++ {
		g.Check(greylist.Triplet{ClientIP: ipAt(40+i/62500, i%62500), Sender: "new@tail.example", Recipient: "u0@" + destDomain})
	}
	for i := 0; i < f.tailTouches && f.hot > 0; i++ {
		c := i % f.hot
		g.Check(greylist.Triplet{ClientIP: f.clientIP(c), Sender: f.sender(c), Recipient: f.rcpt(c, 0)})
	}
	if err := wal.Sync(); err != nil {
		return fmt.Errorf("fixture sync: %w", err)
	}
	for _, name := range []string{"greylist.db", "greylist.wal"} {
		if err := copyFile(filepath.Join(work, name), filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	f.wantPending, f.wantPassed = g.PendingCount(), g.PassedCount()
	f.replayed = f.tailPending + f.tailTouches
	f.buildSeconds = time.Since(start).Seconds()
	return nil
}

// install copies the pristine fixture into a daemon's state directory.
func (f *stateFixture) install(stateDir string) error {
	for _, name := range []string{"greylist.db", "greylist.wal"} {
		if err := copyFile(filepath.Join(f.dir, name), filepath.Join(stateDir, name)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
