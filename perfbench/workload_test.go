package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/greylist"
)

// sample renders the first visits of each lane's stream.
func sample(t *testing.T, name string, seed uint64) string {
	t.Helper()
	w, err := buildWorkload(name, seed, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for lane := 0; lane < 2; lane++ {
		for i := 0; i < 50; i++ {
			v := w.streams[lane].next()
			fmt.Fprintf(&b, "%d %s %v|", lane, v.ip, v.quit)
			for _, tx := range v.txns {
				fmt.Fprintf(&b, "%s %v %d;", tx.sender, tx.rcpts, tx.dataLen)
			}
			b.WriteByte('\n')
		}
		for _, a := range w.actors[lane] {
			fmt.Fprintf(&b, "actor %d %v %v\n", a.id, a.ips, a.nextVisit().txns[0].rcpts)
		}
	}
	if w.fixture != nil {
		fmt.Fprintf(&b, "fixture %s\n", w.fixture.hash)
	}
	return b.String()
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"campaign", "steady", "probe"} {
		a, b := sample(t, name, 3), sample(t, name, 3)
		if a != b {
			t.Fatalf("%s: same seed, different schedules", name)
		}
		if c := sample(t, name, 4); c == a {
			t.Fatalf("%s: seeds 3 and 4 gave the same schedule", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := buildWorkload("nope", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSteadyFixtureRecovers recovers the steady fixture the way
// greylistd does at start-up (OpenWAL: checkpoint, then log replay) and
// checks the tables against what the fixture and the oracle expect.
func TestSteadyFixtureRecovers(t *testing.T) {
	f := newStateFixture("steady", 9, 1200, 300)
	var models [2]*model
	for i := range models {
		models[i] = newModel(5, newChainFacts())
	}
	f.seedModels(models)
	dir := t.TempDir()
	if err := f.build(dir, daemonPolicy()); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.install(state); err != nil {
		t.Fatal(err)
	}
	g := greylist.New(daemonPolicy(), nil)
	wal, info, err := greylist.OpenWAL(greylist.WALConfig{
		Path:           filepath.Join(state, "greylist.wal"),
		CheckpointPath: filepath.Join(state, "greylist.db"),
		CompactBytes:   -1,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if !info.CheckpointLoaded || info.ReplayedRecords != f.replayed {
		t.Fatalf("recovery %+v, want checkpoint plus %d replayed records", info, f.replayed)
	}
	if g.PendingCount() != f.wantPending || g.PassedCount() != f.wantPassed {
		t.Fatalf("recovered %d pending, %d passed; fixture has %d, %d",
			g.PendingCount(), g.PassedCount(), f.wantPending, f.wantPassed)
	}
	passed, pending := 0, 0
	for _, m := range models {
		passed += len(m.passed)
		pending += len(m.pending)
	}
	if passed != f.wantPassed || pending+f.tailPending != f.wantPending {
		t.Fatalf("oracle has %d passed, %d pending (+%d tail); engine %d, %d",
			passed, pending, f.tailPending, f.wantPassed, f.wantPending)
	}
	// Every session the steady stream draws passes on the recovered engine.
	rng := newRand(9, "test", 0)
	for c := 0; c < f.clients; c += 97 {
		tx := f.txnFor(c, rng)
		models[c%2].decide(f.clientIP(c), tx)
		for i, r := range tx.rcpts {
			v := g.Check(greylist.Triplet{ClientIP: f.clientIP(c), Sender: tx.sender, Recipient: r})
			if v.Decision != greylist.Pass || !tx.exp[i].pass {
				t.Fatalf("client %d %s: engine %v, oracle %+v", c, r, v.Decision, tx.exp[i])
			}
		}
	}
}

func TestCPUSharesParsesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(fmt.Sprint(x))
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0 || sum > 1.0001 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	want := []string{"gc", "net", "smtpserver", "trace", "greylist", "bypass", "obs", "metrics"}
	var got []string
	for _, k := range want {
		if _, ok := shares[k]; ok {
			got = append(got, k)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
}
