package greylist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

// greylistMetricNames is the stable exported catalogue; renaming any of
// these breaks dashboards, so the test pins them.
var greylistMetricNames = []string{
	"greylist_checks_total",
	"greylist_verdicts_total",
	"greylist_triplets_recorded_total",
	"greylist_triplets_whitelisted_total",
	"greylist_gc_sweeps_total",
	"greylist_gc_dropped_total",
	"greylist_pending_triplets",
	"greylist_passed_triplets",
	"greylist_autowl_clients",
	"greylist_check_seconds",
	"greylist_batch_seconds",
	"greylist_batch_size",
	"greylist_snapshot_save_seconds",
	"greylist_snapshot_load_seconds",
}

func TestRegisterExportsCatalogue(t *testing.T) {
	for name, mk := range map[string]func() *Greylister{
		"single": func() *Greylister { return New(DefaultPolicy(), simtime.NewSim(simtime.Epoch)) },
	} {
		t.Run(name, func(t *testing.T) {
			g := mk()
			reg := metrics.NewRegistry()
			g.Register(reg)
			out := exposition(t, reg)
			for _, name := range greylistMetricNames {
				if !strings.Contains(out, "# TYPE "+name+" ") {
					t.Errorf("catalogue metric %s missing from exposition", name)
				}
			}
		})
	}
}

func TestMirrorTracksVerdicts(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(DefaultPolicy(), clock)
	reg := metrics.NewRegistry()
	g.Register(reg)

	tr := Triplet{ClientIP: "203.0.113.7", Sender: "a@x.example", Recipient: "u@foo.net"}
	g.Check(tr) // first-seen
	g.Check(tr) // too-soon
	clock.Advance(301 * time.Second)
	g.Check(tr) // retry-accepted
	g.Check(tr) // known-triplet

	out := exposition(t, reg)
	for _, want := range []string{
		"greylist_checks_total 4\n",
		`greylist_verdicts_total{reason="first-seen"} 1` + "\n",
		`greylist_verdicts_total{reason="too-soon"} 1` + "\n",
		`greylist_verdicts_total{reason="retry-accepted"} 1` + "\n",
		`greylist_verdicts_total{reason="known-triplet"} 1` + "\n",
		"greylist_pending_triplets 0\n",
		"greylist_passed_triplets 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The check-latency histogram observed every check, allocation-free.
	if !strings.Contains(out, "greylist_check_seconds_count 4\n") {
		t.Errorf("check latency histogram missed checks:\n%s", out)
	}
}

func TestMirrorNeverDisagreesWithStats(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(DefaultPolicy(), clock)
	reg := metrics.NewRegistry()
	g.Register(reg)

	for i := 0; i < 40; i++ {
		g.Check(Triplet{
			ClientIP:  fmt.Sprintf("203.0.113.%d", i%8),
			Sender:    "a@x.example",
			Recipient: fmt.Sprintf("u%d@foo.net", i%5),
		})
	}
	clock.Advance(301 * time.Second)
	for i := 0; i < 40; i++ {
		g.Check(Triplet{
			ClientIP:  fmt.Sprintf("203.0.113.%d", i%8),
			Sender:    "a@x.example",
			Recipient: fmt.Sprintf("u%d@foo.net", i%5),
		})
	}
	g.GC()

	st := g.Stats()
	out := exposition(t, reg)
	for line, want := range map[string]uint64{
		"greylist_checks_total":                            st.Checks,
		`greylist_verdicts_total{reason="first-seen"}`:     st.DeferredNew,
		`greylist_verdicts_total{reason="retry-accepted"}`: st.PassedRetry,
		`greylist_verdicts_total{reason="known-triplet"}`:  st.PassedKnown,
		"greylist_gc_sweeps_total":                         st.GCSweeps,
		"greylist_gc_dropped_total":                        st.GCDropped,
	} {
		if !strings.Contains(out, fmt.Sprintf("%s %d\n", line, want)) {
			t.Errorf("mirror disagrees with Stats for %s (want %d):\n%s", line, want, out)
		}
	}
	if st.GCSweeps != 1 {
		t.Errorf("GCSweeps = %d, want 1", st.GCSweeps)
	}
}

// TestStatsSurviveSaveLoadWithMirror is the satellite round-trip test:
// the full Stats struct — including the GC counters added for the
// metrics mirror — must come back identical from SaveFile/LoadFile, and
// the registry exposition over the restored engine must render the same
// counter samples the original engine rendered.
func TestStatsSurviveSaveLoadWithMirror(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/state.db"

	clock := simtime.NewSim(simtime.Epoch)
	g := New(DefaultPolicy(), clock)
	reg := metrics.NewRegistry()
	g.Register(reg)

	tr := Triplet{ClientIP: "203.0.113.9", Sender: "a@x.example", Recipient: "u@foo.net"}
	g.Check(tr)
	g.Check(tr)
	clock.Advance(301 * time.Second)
	g.Check(tr)
	g.GC()

	want := g.Stats()
	if want.GCSweeps != 1 {
		t.Fatalf("GCSweeps = %d, want 1", want.GCSweeps)
	}
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	g2 := New(DefaultPolicy(), clock)
	reg2 := metrics.NewRegistry()
	g2.Register(reg2)
	if err := g2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got := g2.Stats(); got != want {
		t.Fatalf("Stats after round trip = %+v, want %+v", got, want)
	}

	// Counter-for-counter, the restored registry renders the same
	// samples (histograms are process-local operational state, not
	// persisted policy state, so only counter/gauge lines must match).
	filter := func(out string) []string {
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "greylist_") &&
				!strings.Contains(l, "_seconds") && !strings.Contains(l, "_size") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	before, after := filter(exposition(t, reg)), filter(exposition(t, reg2))
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("mirror exposition diverged after round trip:\nbefore: %v\nafter:  %v", before, after)
	}

	// The snapshot save/load histograms observed their operations.
	if out := exposition(t, reg); !strings.Contains(out, "greylist_snapshot_save_seconds_count 1\n") {
		t.Errorf("save duration not observed:\n%s", out)
	}
	if out := exposition(t, reg2); !strings.Contains(out, "greylist_snapshot_load_seconds_count 1\n") {
		t.Errorf("load duration not observed:\n%s", out)
	}
}
