package main

import (
	"testing"
	"time"
)

// TestSoakAgainstDaemon runs the soak harness against greylistd's
// assembly started in-process, admin listener included, so the load
// generator registers in the daemon's registry and feeds its
// observatory. The 1 s threshold outlasts the run, so every new
// triplet is deferred and none fails.
func TestSoakAgainstDaemon(t *testing.T) {
	rep, err := runSoak(soakOptions{
		threshold:  time.Second,
		rate:       1000,
		ham:        0.25,
		conns:      2,
		rcptBatch:  16,
		warmup:     200 * time.Millisecond,
		measure:    200 * time.Millisecond,
		soak:       200 * time.Millisecond,
		slo:        time.Second,
		seed:       1,
		adminAddr:  "127.0.0.1:0",
		obsWindow:  100 * time.Millisecond,
		obsWindows: 4,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var completed uint64
	for _, p := range rep.Phases {
		completed += p.Completed
		if p.Failed != 0 {
			t.Errorf("phase %s: %d failed sessions", p.Name, p.Failed)
		}
	}
	if completed == 0 {
		t.Error("no session completed")
	}
	if n := rep.Verdicts["deferred"].Count; n == 0 {
		t.Errorf("no deferred RCPT; verdicts %+v", rep.Verdicts)
	}
}
