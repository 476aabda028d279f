package greylist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(DefaultPolicy(), clock)

	pendingT := Triplet{ClientIP: "203.0.113.9", Sender: "a@x.example", Recipient: "u@foo.net"}
	passedT := Triplet{ClientIP: "203.0.113.10", Sender: "b@x.example", Recipient: "u@foo.net"}
	g.Check(pendingT)
	g.Check(passedT)
	clock.Advance(301 * time.Second)
	g.Check(passedT) // promote to passed

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// A fresh greylister restored from the snapshot must honor both the
	// pending record (retry passes, since >300s elapsed) and the passed
	// record (immediate pass).
	g2 := New(DefaultPolicy(), clock)
	if err := g2.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if v := g2.Check(passedT); v.Decision != Pass || v.Reason != ReasonKnownTriplet {
		t.Fatalf("restored passed triplet = %+v", v)
	}
	if v := g2.Check(pendingT); v.Decision != Pass || v.Reason != ReasonRetryAccepted {
		t.Fatalf("restored pending triplet = %+v (first-seen must survive restart)", v)
	}
	if got := g2.Stats().Checks; got == 0 {
		t.Fatal("stats not restored")
	}
}

func TestLoadGarbage(t *testing.T) {
	g := New(DefaultPolicy(), simtime.NewSim(simtime.Epoch))
	if err := g.Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestSaveLoadPreservesAutoWhitelist(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := DefaultPolicy()
	p.AutoWhitelistAfter = 1
	g := New(p, clock)
	tr := Triplet{ClientIP: "198.51.100.3", Sender: "m@b.example", Recipient: "a@foo.net"}
	g.Check(tr)
	clock.Advance(301 * time.Second)
	g.Check(tr) // client now auto-whitelisted

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2 := New(p, clock)
	if err := g2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	v := g2.Check(Triplet{ClientIP: "198.51.100.3", Sender: "m@b.example", Recipient: "fresh@foo.net"})
	if v.Reason != ReasonAutoWhitelisted {
		t.Fatalf("restored auto-whitelist = %+v", v)
	}
}

func TestSaveFileLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.db")

	clock := simtime.NewSim(simtime.Epoch)
	g := New(DefaultPolicy(), clock)
	tr := Triplet{ClientIP: "203.0.113.4", Sender: "a@b.example", Recipient: "u@foo.net"}
	g.Check(tr)
	clock.Advance(301 * time.Second)
	g.Check(tr)

	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "state.db" {
		t.Fatalf("dir contents = %v", files)
	}

	g2 := New(DefaultPolicy(), clock)
	if err := g2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if v := g2.Check(tr); v.Reason != ReasonKnownTriplet {
		t.Fatalf("restored = %+v", v)
	}
	if err := g2.LoadFile(filepath.Join(dir, "missing.db")); err == nil {
		t.Fatal("LoadFile on missing path succeeded")
	}
}

// legacyShardedStream renders engines as the state a -shards N daemon
// wrote: "shards N\n", then each shard's Save stream.
func legacyShardedStream(t *testing.T, shards ...*Greylister) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "shards %d\n", len(shards))
	for _, g := range shards {
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLoadLegacyShardedState: state written by a -shards 2 daemon loads
// into the one engine. Each shard held its own triplets, so the triplet
// tables are a union; the same client earned auto-whitelist credit and
// an earned grant in both shards, so those records merge (summed
// deliveries, newest use, earliest grant); Stats sum. A zero shard
// count, a missing shard and garbage are refused.
func TestLoadLegacyShardedState(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	p := earnedPolicy(300 * time.Second)
	a, b := New(p, clock), New(p, clock)
	inA := Triplet{ClientIP: "192.0.2.1", Sender: "s@x.example", Recipient: "a@foo.net"}
	inB := Triplet{ClientIP: "192.0.2.1", Sender: "s@x.example", Recipient: "b@foo.net"}
	pending := Triplet{ClientIP: "198.51.100.7", Sender: "p@x.example", Recipient: "a@foo.net"}
	other := Triplet{ClientIP: "192.0.2.1", Sender: "o@y.example", Recipient: "o@foo.net"}
	a.Check(inA)
	b.Check(inB)
	clock.Advance(301 * time.Second)
	a.Check(inA) // promoted in shard a: first grant
	a.Check(other)
	a.Check(pending)
	clock.Advance(301 * time.Second)
	b.Check(inB) // promoted in shard b: later grant, newest use
	b.Check(other)
	grantA, useB := simtime.Epoch.Add(301*time.Second), clock.Now()

	stream := legacyShardedStream(t, a, b)
	g := New(p, clock)
	if err := g.Load(bytes.NewReader(stream)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g.PendingCount() != 1 || g.PassedCount() != 2 {
		t.Fatalf("tables: %d pending, %d passed; want 1, 2", g.PendingCount(), g.PassedCount())
	}
	g.mu.RLock()
	snap := g.snapshotLocked()
	g.mu.RUnlock()
	c := snap.Clients["192.0.2.1"]
	if c.Deliveries != 2 || !c.LastUsed.Equal(useB) {
		t.Errorf("merged client = %+v, want 2 deliveries last used %v", c, useB)
	}
	e := snap.Earned["192.0.2.1"]
	if !e.GrantedAt.Equal(grantA) || !e.LastUsed.Equal(useB) || e.Deliveries != 2 {
		t.Errorf("merged earned = %+v, want granted %v, last used %v, 2 deliveries", e, grantA, useB)
	}
	if got, want := g.Stats().Checks, a.Stats().Checks+b.Stats().Checks; got != want {
		t.Errorf("Checks = %d, want the shards' sum %d", got, want)
	}
	if got := g.Stats().PassedRetry; got != 2 {
		t.Errorf("PassedRetry = %d, want 2", got)
	}
	if v := g.Check(Triplet{ClientIP: "192.0.2.1", Sender: "new@y.example", Recipient: "c@foo.net"}); v.Reason != ReasonEarnedWhitelist || !v.FirstSeen.Equal(grantA) {
		t.Errorf("merged earned grant = %+v, want earned-whitelist from %v", v, grantA)
	}
	if v := g.Check(pending); v.Reason != ReasonRetryAccepted {
		t.Errorf("pending triplet after load = %+v, want retry-accepted", v)
	}

	var oneShard bytes.Buffer
	if err := a.Save(&oneShard); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"garbage":       "garbage",
		"garbage count": "shards x\n",
		"zero shards":   "shards 0\n",
		"missing shard": "shards 2\n" + oneShard.String(),
	} {
		if err := New(p, clock).Load(strings.NewReader(bad)); err == nil {
			t.Errorf("Load accepted %s", name)
		}
	}
}
