package trace

import (
	"testing"
	"time"
)

// The disabled path is the contract: a nil handle must cost ≤1 ns/op
// and 0 allocs/op, because every hot path (greylist.Check, the SMTP
// verb loop, netsim.Dial) executes these calls unconditionally.

func BenchmarkDisabledVerb(b *testing.B) {
	var tc *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.Verb(time.Time{}, "RCPT", 451, "greylisted", time.Millisecond)
	}
}

func BenchmarkDisabledGreylist(b *testing.B) {
	var tc *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.Greylist(time.Time{}, "defer", "first-seen", "10.0.0.1", "a@b", "u@d", 300*time.Second, 1)
	}
}

func BenchmarkDisabledDial(b *testing.B) {
	var tc *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.Dial("10.0.0.1:25", nil)
	}
}

func BenchmarkDisabledStartAttempt(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.StartAttempt(Tags{}, "u@d", 0, nil)
		tc.Finish("delivered")
	}
}

// Enabled-path costs, for BENCH_trace.json.

func BenchmarkEnabledVerb(b *testing.B) {
	tr := New(1)
	clock := newFakeClock()
	tc := tr.StartAttempt(Tags{Family: "F"}, "u@d", 0, clock.Now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Verb(time.Time{}, "RCPT", 451, "greylisted", time.Millisecond)
	}
}

func BenchmarkEnabledAttemptLifecycle(b *testing.B) {
	tr := New(1024)
	clock := newFakeClock()
	tags := Tags{Family: "Kelihos", Defense: "greylisting", Sample: 3, Threshold: 300 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := tr.StartAttempt(tags, "u@d", 0, clock.Now)
		tc.Dial("10.0.0.1:25", nil)
		tc.Verb(clock.Now(), "HELO", 250, "", 0)
		tc.Verb(clock.Now(), "MAIL", 250, "", 0)
		tc.Verb(clock.Now(), "RCPT", 451, "greylisted", 0)
		tc.Greylist(clock.Now(), "defer", "first-seen", "10.0.0.1", "a@b", "u@d", 300*time.Second, 1)
		tc.Finish("deferred")
	}
}

func BenchmarkRingPut(b *testing.B) {
	r := NewRing(4096)
	tr := New(1)
	tc := tr.StartAttempt(Tags{}, "u@d", 0, newFakeClock().Now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Put(tc)
	}
}

func BenchmarkRingPutParallel(b *testing.B) {
	r := NewRing(4096)
	tr := New(1)
	tc := tr.StartAttempt(Tags{}, "u@d", 0, newFakeClock().Now)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Put(tc)
		}
	})
}

// BenchmarkEnabledSession is one sampled session as greylistd records
// it on a 16-RCPT pipelined transaction — 18 verb events and 16
// greylist events — finishing without being kept (no 4xx/5xx reply,
// not slow). Its buffer is pooled, so the Trace header is the only
// allocation, plus the exact-size copy of the 1 in SampleEvery that the
// sampler keeps.
func BenchmarkEnabledSession(b *testing.B) {
	tr := New(1024)
	now := newFakeClock().Now // bound once, as smtpserver binds its clock
	at := now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := tr.StartSampledSession(Tags{}, "192.0.2.1", now)
		tc.Verb(at, "EHLO", 250, "bench.example Hello client.example", 0)
		tc.Verb(at, "MAIL", 250, "Sender OK", 0)
		for j := 0; j < 16; j++ {
			tc.Greylist(at, "pass", "known-triplet", "192.0.2.1", "a@b.example", "u@foo.net", 0, 2)
			tc.Verb(at, "RCPT", 250, "Recipient OK", 0)
		}
		tc.Finish("no-delivery")
	}
}
