package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// startUnsampled returns a sampled session whose ID does not fall in
// the 1-in-SampleEvery sample, so only the failure and slow rules can
// keep it. A session drawn into the sample is abandoned unfinished, so
// it never reaches the tracer's counts.
func startUnsampled(t testing.TB, tr *Tracer, now func() time.Time) *Trace {
	t.Helper()
	for i := 0; i < 4*SampleEvery; i++ {
		tc := tr.StartSampledSession(Tags{}, "192.0.2.1", now)
		if tc.ID()%SampleEvery != 0 {
			return tc
		}
	}
	t.Fatal("no unsampled trace ID in 256 tries")
	return nil
}

func TestSampledSessionCap(t *testing.T) {
	tr := New(4)
	clock := newFakeClock()
	tc := tr.StartSampledSession(Tags{}, "192.0.2.1", clock.Now)
	const verbs = 1000
	for i := 0; i < verbs; i++ {
		tc.Verb(time.Time{}, "RCPT", 451, "greylisted", 0)
		if n := tc.eventCount(); n > MaxSessionEvents-1 {
			t.Fatalf("live trace holds %d events before its outcome", n)
		}
	}
	tc.Finish("deferred")
	evs := tc.Events()
	if len(evs) != MaxSessionEvents {
		t.Fatalf("events = %d, want %d", len(evs), MaxSessionEvents)
	}
	if last := evs[len(evs)-1]; last.Kind != KindOutcome || last.Name != "deferred" {
		t.Fatalf("last event = %+v, want the outcome", last)
	}
	// The session event plus verbs-1 recorded verbs fill the cap.
	if got, want := tc.Dropped(), 1+verbs-(MaxSessionEvents-1); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	if cap(tc.events) != len(tc.events) {
		t.Fatalf("kept trace is not right-sized: len %d cap %d", len(tc.events), cap(tc.events))
	}
	rec := tc.Record()
	if rec.Dropped != tc.Dropped() || len(rec.Events) != MaxSessionEvents {
		t.Fatalf("record dropped=%d events=%d", rec.Dropped, len(rec.Events))
	}
}

// TestUnsampledTracesUnbounded: attempt, message and plain session
// traces keep every event and are always published.
func TestUnsampledTracesUnbounded(t *testing.T) {
	tr := New(4)
	clock := newFakeClock()
	for _, tc := range []*Trace{
		tr.StartAttempt(Tags{}, "u@d", 0, clock.Now),
		tr.StartMessage(Tags{}, "u@d", clock.Now),
		tr.StartSession(Tags{}, "192.0.2.1", clock.Now),
	} {
		for i := 0; i < 2*MaxSessionEvents; i++ {
			tc.Verb(time.Time{}, "RCPT", 250, "ok", 0)
		}
		if !tc.Kept() {
			t.Fatal("unsampled live trace must report Kept")
		}
		tc.Finish("delivered")
		if tc.Dropped() != 0 || len(tc.Events()) <= 2*MaxSessionEvents {
			t.Fatalf("unsampled trace capped: %d events, %d dropped", len(tc.Events()), tc.Dropped())
		}
	}
	if tr.NotKept() != 0 || tr.Finished() != 3 {
		t.Fatalf("not kept %d, finished %d", tr.NotKept(), tr.Finished())
	}
}

func TestSampledSessionKeepRule(t *testing.T) {
	clock := newFakeClock()

	t.Run("plain session is recycled", func(t *testing.T) {
		tr := New(8)
		tc := startUnsampled(t, tr, clock.Now)
		before := tr.Len()
		tc.Verb(time.Time{}, "MAIL", 250, "ok", 0)
		if tc.Kept() {
			t.Fatal("live sampled trace reports Kept")
		}
		tc.Finish("no-delivery")
		if tc.Kept() || len(tc.Events()) != 0 || tr.Len() != before || tc.ExemplarID() != 0 {
			t.Fatalf("plain session kept: kept=%v events=%d ring=%d exemplar=%x",
				tc.Kept(), len(tc.Events()), tr.Len(), tc.ExemplarID())
		}
		if tr.NotKept() == 0 || tr.Counts()["|no-delivery"] != tr.Finished() {
			t.Fatalf("not kept %d, counts %v, finished %d", tr.NotKept(), tr.Counts(), tr.Finished())
		}
	})

	for _, code := range []int{451, 501, 554} {
		t.Run(fmt.Sprintf("%d reply keeps", code), func(t *testing.T) {
			tr := New(8)
			tc := startUnsampled(t, tr, clock.Now)
			tc.Verb(time.Time{}, "RCPT", code, "no", 0)
			tc.Finish("deferred")
			if !tc.Kept() || len(tc.Events()) != 3 || tc.ExemplarID() != tc.ID() {
				t.Fatalf("kept=%v events=%d exemplar=%x", tc.Kept(), len(tc.Events()), tc.ExemplarID())
			}
		})
	}

	t.Run("a flagging reply past the cap still keeps", func(t *testing.T) {
		tr := New(8)
		tc := startUnsampled(t, tr, clock.Now)
		for i := 0; i < MaxSessionEvents; i++ {
			tc.Verb(time.Time{}, "RSET", 250, "ok", 0)
		}
		tc.Verb(time.Time{}, "RCPT", 451, "greylisted", 0)
		tc.Finish("deferred")
		// session + MaxSessionEvents RSETs + RCPT against a cap of
		// MaxSessionEvents-1 before the outcome: 3 dropped.
		if !tc.Kept() || tc.Dropped() != 3 {
			t.Fatalf("kept=%v dropped=%d", tc.Kept(), tc.Dropped())
		}
	})

	t.Run("1 in SampleEvery is kept", func(t *testing.T) {
		tr := New(4096)
		kept := 0
		const n = 64 * SampleEvery
		for i := 0; i < n; i++ {
			tc := tr.StartSampledSession(Tags{}, "192.0.2.1", clock.Now)
			tc.Finish("no-delivery")
			if tc.Kept() {
				kept++
				if tc.ID()%SampleEvery != 0 {
					t.Fatalf("kept a plain session with id %x", tc.ID())
				}
			}
		}
		if kept < n/SampleEvery/2 || kept > 2*n/SampleEvery {
			t.Fatalf("kept %d of %d, want about %d", kept, n, n/SampleEvery)
		}
		if uint64(kept) != uint64(tr.Len()) || tr.NotKept() != uint64(n-kept) {
			t.Fatalf("ring %d, not kept %d", tr.Len(), tr.NotKept())
		}
	})

	t.Run("slower than the running p99 keeps", func(t *testing.T) {
		tr := New(8)
		for i := 0; i < 4*tailEvery; i++ {
			tc := tr.StartSampledSession(Tags{}, "192.0.2.1", clock.Now)
			clock.Advance(time.Millisecond)
			tc.Finish("no-delivery")
		}
		if th := tr.slowThreshold(); th < time.Millisecond || th > 2*time.Millisecond {
			t.Fatalf("p99 threshold = %v, want about 1ms", th)
		}
		fast := startUnsampled(t, tr, clock.Now)
		clock.Advance(time.Millisecond)
		fast.Finish("no-delivery")
		slow := startUnsampled(t, tr, clock.Now)
		clock.Advance(10 * time.Millisecond)
		slow.Finish("no-delivery")
		if fast.Kept() || !slow.Kept() {
			t.Fatalf("fast kept=%v, slow kept=%v", fast.Kept(), slow.Kept())
		}
	})
}

// TestGreylistRendersLikeEagerDetail: a greylist event formats its
// "(ip, sender, rcpt) reason" detail when read, byte-identical on every
// read path to the same event recorded with the detail preformatted.
func TestGreylistRendersLikeEagerDetail(t *testing.T) {
	tr := New(4)
	clock := newFakeClock()
	eager := tr.StartAttempt(Tags{Family: "F"}, "u@d", 0, clock.Now)
	lazy := tr.StartAttempt(Tags{Family: "F"}, "u@d", 0, clock.Now)
	eager.Add(KindGreylist, "defer", "(10.0.0.9, a@b.example, u@d) first-seen", 1, 300*time.Second)
	lazy.Greylist(clock.Now(), "defer", "first-seen", "10.0.0.9", "a@b.example", "u@d", 300*time.Second, 1)
	eager.Finish("deferred")
	lazy.Finish("deferred")
	if e, l := eager.Events(), lazy.Events(); e[1] != l[1] {
		t.Fatalf("Events: eager %+v, lazy %+v", e[1], l[1])
	}
	er, lr := eager.Record(), lazy.Record()
	er.ID, lr.ID = "", ""
	ej, _ := json.Marshal(er)
	lj, _ := json.Marshal(lr)
	if string(ej) != string(lj) {
		t.Fatalf("Record: eager %s, lazy %s", ej, lj)
	}
	var ed, ld strings.Builder
	writeTraceDetail(&ed, eager)
	writeTraceDetail(&ld, lazy)
	if strip := func(s string) string { return s[strings.Index(s, " "):] }; strip(ed.String()) != strip(ld.String()) {
		t.Fatalf("detail:\n%s\nvs\n%s", ed.String(), ld.String())
	}
}

// TestCappedRingMemoryBound fills a 1024-slot ring with sessions that
// each try to record far more than the cap. The retained heap must stay
// under slots × MaxSessionEvents × sizeof(Event) plus the traces'
// headers and strings, whatever the clients send.
func TestCappedRingMemoryBound(t *testing.T) {
	const slots = 1024
	tr := New(slots)
	clock := newFakeClock()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	var strBytes uintptr
	for i := 0; i < 2*slots; i++ {
		ip := fmt.Sprintf("198.51.%d.%d", i/256, i%256)
		if i >= slots {
			strBytes += uintptr(len(ip))
		}
		tc := tr.StartSampledSession(Tags{}, ip, clock.Now)
		for j := 0; j < 4*MaxSessionEvents; j++ {
			tc.Verb(time.Time{}, "RCPT", 451, "4.7.1 greylisted", time.Microsecond)
		}
		tc.Finish("deferred")
	}
	if tr.Len() != slots {
		t.Fatalf("ring holds %d traces, want %d", tr.Len(), slots)
	}
	grown := heap() - base
	bound := slots*(MaxSessionEvents*unsafe.Sizeof(Event{})+unsafe.Sizeof(Trace{})) + strBytes
	// Pooled buffers surviving the GC may add a few in-flight slabs.
	slack := 8 * MaxSessionEvents * unsafe.Sizeof(Event{})
	if uintptr(grown) > bound+slack {
		t.Fatalf("ring of %d capped traces grew the heap by %d B, bound %d B", slots, grown, bound+slack)
	}
	t.Logf("ring of %d capped traces: %d B retained, bound %d B", slots, grown, bound)
	runtime.KeepAlive(tr)
}

func TestHandlerReportsSampling(t *testing.T) {
	tr := New(16)
	clock := newFakeClock()
	flagged := tr.StartSampledSession(Tags{}, "192.0.2.1", clock.Now)
	for i := 0; i < MaxSessionEvents+9; i++ {
		flagged.Verb(time.Time{}, "RCPT", 451, "greylisted", 0)
	}
	flagged.Finish("deferred")
	plain := startUnsampled(t, tr, clock.Now)
	plain.Finish("no-delivery")

	get := func(q string) (int, string) {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+q, nil))
		return rec.Code, rec.Body.String()
	}
	_, body := get("")
	for _, want := range []string{
		fmt.Sprintf("1 retained (capacity 16, %d finished total, %d not kept by sampling)", tr.Finished(), tr.NotKept()),
		fmt.Sprintf("at most %d events", MaxSessionEvents),
		fmt.Sprintf("1 in %d of the rest", SampleEvery),
		fmt.Sprintf("events=%d dropped=11 ", MaxSessionEvents),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("listing lacks %q:\n%s", want, body)
		}
	}
	if _, jl := get("?format=jsonl"); !strings.Contains(jl, `"dropped":11`) {
		t.Errorf("jsonl lacks dropped count:\n%s", jl)
	}
	code, body := get("?id=" + FormatID(plain.ID()))
	if code != 404 || !strings.Contains(body, "sampler did not keep") {
		t.Errorf("?id= of a not-kept session: %d %q", code, body)
	}
	// An unsampled trace's JSONL carries no dropped field at all.
	lab := New(2)
	lab.StartAttempt(Tags{Family: "F"}, "u@d", 0, clock.Now).Finish("delivered")
	var sb strings.Builder
	if err := lab.WriteJSONL(&sb); err != nil || strings.Contains(sb.String(), "dropped") {
		t.Fatalf("unsampled export mentions dropped (%v):\n%s", err, sb.String())
	}
}
