package greylist

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

// TestConcurrentWALCheckVsCompact hammers a WAL-attached engine from
// many goroutines while compaction, fsync, and flush control requests
// cycle underneath — the configuration (tiny ring,
// tiny compaction threshold, short sync interval) forces every
// contended path: producers spinning on a full ring inside engine
// locks, the consumer taking those same locks via lockWithDrain, and
// checkpoint barriers racing check traffic. Run under -race in CI.
// The final recovery asserts the log+checkpoint still reconstruct the
// closed engine's exact tables.
func TestConcurrentWALCheckVsCompact(t *testing.T) {
	clock := simtime.NewSim(simtime.Epoch)
	e := New(walTestPolicy(), clock)
	dir := t.TempDir()
	log, ck := walPaths(dir)
	w, _, err := OpenWAL(WALConfig{
		Path:           log,
		CheckpointPath: ck,
		Sync:           SyncInterval,
		SyncEvery:      5 * time.Millisecond,
		CompactBytes:   4096,
		Ring:           64,
	}, e)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Virtual time advances continuously so thresholds and lifetimes
	// actually elapse mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(30 * time.Second)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	// Check workers: single checks, batches, GC.
	const workers = 8
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var out []Verdict
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := Triplet{
					ClientIP:  fmt.Sprintf("203.0.113.%d", (wk*31+i)%97),
					Sender:    fmt.Sprintf("s%d@x.example", i%13),
					Recipient: fmt.Sprintf("u%d@y.example", wk),
				}
				switch i % 7 {
				case 0:
					out = e.CheckBatch([]Triplet{tr,
						{ClientIP: tr.ClientIP, Sender: "b@x.example", Recipient: tr.Recipient},
					}, out[:0])
				case 5:
					if i%91 == 0 {
						e.GC()
					}
					e.Check(tr)
				default:
					e.Check(tr)
				}
			}
		}(wk)
	}

	// Control churn: explicit compactions, syncs, flushes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 3 {
			case 0:
				err = w.Compact()
			case 1:
				err = w.Sync()
			default:
				err = w.Flush()
			}
			if err != nil {
				t.Errorf("control request: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Everything the engine holds must be reconstructible from disk.
	r := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))
	w2, info, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, r)
	if err != nil {
		t.Fatalf("recovery OpenWAL: %v", err)
	}
	defer w2.Close()
	if info.TornBytes != 0 {
		t.Errorf("clean Close left %d torn bytes", info.TornBytes)
	}
	if got, want := dumpTables(r), dumpTables(e); got != want {
		t.Errorf("recovered tables != closed engine tables\ngot %d bytes, want %d bytes", len(got), len(want))
	}
}
