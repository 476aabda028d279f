package trace

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestRingConcurrentPutSnapshot hammers the lock-free ring with
// parallel writers while readers snapshot — run under -race.
func TestRingConcurrentPutSnapshot(t *testing.T) {
	r := NewRing(64)
	clock := newFakeClock()
	tr := New(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tc := tr.StartAttempt(Tags{Family: "F"}, fmt.Sprintf("w%d-%d", w, i), 0, clock.Now)
				tc.Finish("delivered")
				r.Put(tc)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if len(snap) > r.Cap() {
					t.Errorf("snapshot larger than capacity: %d > %d", len(snap), r.Cap())
					return
				}
				_ = r.Len()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Len(); got != 64 {
		t.Fatalf("ring len after 16000 puts = %d, want 64", got)
	}
}

// TestConcurrentRecordingOneTrace models the real sharing pattern: a
// client goroutine and a server session goroutine record into the
// same trace handle concurrently.
func TestConcurrentRecordingOneTrace(t *testing.T) {
	tr := New(8)
	tc := tr.StartAttempt(Tags{Family: "F"}, "u@d", 0, newFakeClock().Now)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			tc.Dial("10.0.0.1:25", nil)
			tc.Verb(time.Time{}, "MAIL", 250, "", time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			tc.Greylist(time.Time{}, "defer", "too-soon", "10.0.0.1", "a@b", "u@d", time.Second, i)
			_ = tc.Events()
		}
	}()
	wg.Wait()
	tc.Finish("deferred")
	evs := tc.Events()
	// attempt + 500 dials + 500 verbs + 500 greylists + outcome.
	if len(evs) != 1502 {
		t.Fatalf("events = %d, want 1502", len(evs))
	}
}

// TestTracerConcurrentFinishAndExport runs finishers against
// WriteJSONL/Counts/Handler-style readers.
func TestTracerConcurrentFinishAndExport(t *testing.T) {
	tr := New(128)
	clock := newFakeClock()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tc := tr.StartAttempt(Tags{Family: "F", Defense: "greylisting"}, fmt.Sprintf("w%d-%d@d", w, i), i%3, clock.Now)
				tc.Verb(time.Time{}, "RCPT", 451, "greylisted", time.Millisecond)
				tc.Finish("deferred")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := tr.WriteJSONL(io.Discard); err != nil {
				t.Errorf("WriteJSONL: %v", err)
				return
			}
			_ = tr.Counts()
			_ = tr.Finished()
		}
	}()
	wg.Wait()
	<-done
	if tr.Finished() != 4000 {
		t.Fatalf("finished = %d, want 4000", tr.Finished())
	}
	if c := tr.Counts()["F|deferred"]; c != 4000 {
		t.Fatalf("index count = %d, want 4000", c)
	}
}
