package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeClock is a deterministic virtual clock for tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time { return c.t }

func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.StartAttempt(Tags{}, "r@d", 0, nil); got != nil {
		t.Fatalf("nil tracer StartAttempt = %v, want nil", got)
	}
	if got := tr.StartMessage(Tags{}, "r@d", nil); got != nil {
		t.Fatalf("nil tracer StartMessage = %v, want nil", got)
	}
	if got := tr.StartSession(Tags{}, "1.2.3.4", nil); got != nil {
		t.Fatalf("nil tracer StartSession = %v, want nil", got)
	}
	if got := tr.StartSampledSession(Tags{}, "1.2.3.4", nil); got != nil {
		t.Fatalf("nil tracer StartSampledSession = %v, want nil", got)
	}
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.Cap() != 0 || tr.Finished() != 0 || tr.NotKept() != 0 || tr.Counts() != nil {
		t.Fatal("nil tracer accessors should be zero values")
	}
	if err := tr.WriteJSONL(io.Discard); err != nil {
		t.Fatalf("nil tracer WriteJSONL: %v", err)
	}

	// Every method on a nil trace must be a no-op.
	var tc *Trace
	tc.Attempt(1, "x")
	tc.Dial("10.0.0.1:25", nil)
	tc.MX("mx1.example.org", 10, 2, false)
	tc.MXError("example.org", fmt.Errorf("boom"))
	tc.Verb(time.Time{}, "RCPT", 451, "greylisted", time.Second)
	tc.Greylist(time.Time{}, "defer", "first-seen", "10.0.0.1", "a@b", "u@d", 300*time.Second, 1)
	tc.Policy("dunno", "")
	tc.Queue("retry-scheduled", "", time.Minute)
	tc.Add(KindVerb, "x", "y", 1, 0)
	tc.SetTry(3)
	tc.Finish("delivered")
	if tc.ID() != 0 || tc.ExemplarID() != 0 || tc.Kept() || tc.Dropped() != 0 || tc.Try() != 0 || tc.Attempts() != 0 || tc.Outcome() != "" ||
		tc.Recipient() != "" || tc.Events() != nil || (tc.Tags() != Tags{}) {
		t.Fatal("nil trace accessors should be zero values")
	}
	if !tc.Start().IsZero() || !tc.End().IsZero() {
		t.Fatal("nil trace times should be zero")
	}
	if got := tc.Record(); got.ID != "" {
		t.Fatalf("nil trace Record = %+v", got)
	}
}

func TestTraceLifecycle(t *testing.T) {
	clock := newFakeClock()
	tr := New(8)
	tags := Tags{Family: "Kelihos", Defense: "greylisting", Sample: 3, Threshold: 300 * time.Second}
	tc := tr.StartAttempt(tags, "u1@example.org", 0, clock.Now)
	if tc == nil || tc.ID() == 0 {
		t.Fatal("expected a live trace with a nonzero ID")
	}
	clock.Advance(10 * time.Millisecond)
	tc.Dial("10.0.0.2:25", nil)
	tc.Verb(clock.Now(), "MAIL", 250, "ok", time.Millisecond)
	tc.Greylist(clock.Now(), "defer", "first-seen", "10.0.0.99", "a@b", "u1@example.org", 300*time.Second, 1)
	clock.Advance(5 * time.Millisecond)
	if tr.Len() != 0 {
		t.Fatalf("ring should be empty before Finish, got %d", tr.Len())
	}
	tc.Finish("deferred")
	tc.Finish("delivered") // idempotent: first outcome wins
	tc.Verb(clock.Now(), "QUIT", 221, "", 0)

	if got := tc.Outcome(); got != "deferred" {
		t.Fatalf("outcome = %q, want deferred", got)
	}
	evs := tc.Events()
	if evs[len(evs)-1].Kind != KindOutcome {
		t.Fatalf("last event kind = %v, want outcome", evs[len(evs)-1].Kind)
	}
	// 1 attempt + dial + verb + greylist + outcome; post-Finish verb dropped.
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5: %+v", len(evs), evs)
	}
	if tc.End().Sub(tc.Start()) != 15*time.Millisecond {
		t.Fatalf("trace duration = %v, want 15ms", tc.End().Sub(tc.Start()))
	}
	if tr.Len() != 1 || tr.Finished() != 1 {
		t.Fatalf("ring len=%d finished=%d, want 1/1", tr.Len(), tr.Finished())
	}
	counts := tr.Counts()
	if counts["Kelihos|deferred"] != 1 {
		t.Fatalf("counts = %v, want Kelihos|deferred=1", counts)
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(4)
	clock := newFakeClock()
	for i := 0; i < 10; i++ {
		tc := tr.StartAttempt(Tags{Family: "F"}, fmt.Sprintf("u%02d@d", i), 0, clock.Now)
		tc.Finish("delivered")
	}
	if tr.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", tr.Len())
	}
	if tr.Finished() != 10 {
		t.Fatalf("finished = %d, want 10", tr.Finished())
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	// Oldest first; the 6 oldest traces were evicted.
	for i, tc := range snap {
		want := fmt.Sprintf("u%02d@d", 6+i)
		if tc.Recipient() != want {
			t.Fatalf("snapshot[%d] recipient = %q, want %q", i, tc.Recipient(), want)
		}
	}
}

func TestSinks(t *testing.T) {
	tr := New(2)
	var got []string
	tr.AddSink(func(tc *Trace) { got = append(got, tc.Outcome()) })
	tr.AddSink(func(tc *Trace) { got = append(got, "second:"+tc.Outcome()) })
	tr.StartAttempt(Tags{}, "a@b", 0, newFakeClock().Now).Finish("rejected")
	if len(got) != 2 || got[0] != "rejected" || got[1] != "second:rejected" {
		t.Fatalf("sinks saw %v", got)
	}
}

func TestWriteJSONLDeterministicOrder(t *testing.T) {
	tr := New(16)
	clock := newFakeClock()
	// Finish out of order; export must sort by cell/recipient/try.
	mk := func(family string, sample int, rcpt string, try int, outcome string) {
		tc := tr.StartAttempt(Tags{Family: family, Defense: "greylisting", Sample: sample}, rcpt, try, clock.Now)
		tc.Finish(outcome)
	}
	mk("Kelihos", 2, "u2@d", 1, "delivered")
	mk("Cutwail", 1, "u1@d", 0, "refused")
	mk("Kelihos", 2, "u2@d", 0, "deferred")
	mk("Kelihos", 1, "u9@d", 0, "deferred")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []Record
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, r)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	order := make([]string, len(lines))
	for i, r := range lines {
		order[i] = fmt.Sprintf("%s/%d/%s/%d", r.Family, r.Sample, r.Recipient, r.Try)
	}
	want := []string{"Cutwail/1/u1@d/0", "Kelihos/1/u9@d/0", "Kelihos/2/u2@d/0", "Kelihos/2/u2@d/1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if lines[0].Events[len(lines[0].Events)-1].Kind != "outcome" {
		t.Fatalf("last event = %+v, want outcome", lines[0].Events[len(lines[0].Events)-1])
	}
}

func TestHandlerFiltersAndDetail(t *testing.T) {
	tr := New(16)
	clock := newFakeClock()
	a := tr.StartAttempt(Tags{Family: "Kelihos", Defense: "greylisting", Sample: 1}, "u1@d", 0, clock.Now)
	a.Greylist(clock.Now(), "defer", "first-seen", "10.0.0.1", "a@b", "u1@d", 300*time.Second, 1)
	a.Finish("deferred")
	b := tr.StartAttempt(Tags{Family: "Kelihos", Defense: "greylisting", Sample: 1}, "u1@d", 3, clock.Now)
	b.Finish("delivered")
	c := tr.StartAttempt(Tags{Family: "Cutwail", Defense: "nolisting", Sample: 2}, "u2@d", 0, clock.Now)
	c.Finish("refused")

	h := tr.Handler(func(w io.Writer) { fmt.Fprintln(w, "EXTRA-SECTION") })

	get := func(url string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Body.String()
	}

	all := get("/debug/traces")
	for _, want := range []string{"Kelihos|deferred", "Kelihos|delivered", "Cutwail|refused", "EXTRA-SECTION"} {
		if !strings.Contains(all, want) {
			t.Fatalf("listing missing %q:\n%s", want, all)
		}
	}

	filtered := get("/debug/traces?family=Kelihos&outcome=delivered")
	if strings.Contains(filtered, "Cutwail") && strings.Contains(filtered, "outcome=refused") {
		t.Fatalf("family filter leaked Cutwail traces:\n%s", filtered)
	}
	if !strings.Contains(filtered, "outcome=delivered") {
		t.Fatalf("filtered listing missing delivered trace:\n%s", filtered)
	}

	minAtt := get("/debug/traces?min_attempts=4")
	if !strings.Contains(minAtt, "try=3") || strings.Contains(minAtt, "try=0 ") {
		t.Fatalf("min_attempts filter wrong:\n%s", minAtt)
	}

	jsonl := get("/debug/traces?defense=nolisting&format=jsonl")
	var r Record
	if err := json.Unmarshal([]byte(strings.TrimSpace(jsonl)), &r); err != nil {
		t.Fatalf("jsonl output not one record: %v\n%s", err, jsonl)
	}
	if r.Defense != "nolisting" || r.Outcome != "refused" {
		t.Fatalf("jsonl record = %+v", r)
	}

	detail := get("/debug/traces?id=" + FormatID(a.ID()))
	if !strings.Contains(detail, "greylist") || !strings.Contains(detail, "first-seen") {
		t.Fatalf("detail view missing greylist event:\n%s", detail)
	}

	missing := httptest.NewRecorder()
	h.ServeHTTP(missing, httptest.NewRequest("GET", "/debug/traces?id=00000000deadbeef", nil))
	if missing.Code != 404 {
		t.Fatalf("unknown id status = %d, want 404", missing.Code)
	}
}

func TestFromConn(t *testing.T) {
	tr := New(1)
	tc := tr.StartAttempt(Tags{}, "a@b", 0, newFakeClock().Now)
	if got := FromConn(carrierConn{tc}); got != tc {
		t.Fatalf("FromConn = %v, want %v", got, tc)
	}
	if got := FromConn(struct{}{}); got != nil {
		t.Fatalf("FromConn on non-carrier = %v, want nil", got)
	}
}

type carrierConn struct{ tc *Trace }

func (c carrierConn) Trace() *Trace { return c.tc }

func TestSplitmixIDsUniqueAndNonZero(t *testing.T) {
	seen := make(map[uint64]bool)
	tr := New(1)
	for i := 0; i < 1000; i++ {
		tc := tr.StartAttempt(Tags{}, "", 0, nil)
		if tc.ID() == 0 || seen[tc.ID()] {
			t.Fatalf("duplicate or zero ID %#x at %d", tc.ID(), i)
		}
		seen[tc.ID()] = true
	}
}
