package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Handler returns an http.Handler for browsing retained traces —
// mounted at /debug/traces on the admin mux.
//
// Query parameters:
//
//	family=NAME        only traces tagged with this family
//	defense=NAME       only traces tagged with this defense
//	outcome=NAME       only traces with this final outcome
//	min_attempts=N     only traces covering at least N attempts
//	id=HEX             one trace, with its full event listing
//	limit=N            at most N traces (default 100, text only)
//	format=jsonl       machine-readable export of the filtered set
//
// Each extras function is invoked after the text listing — the admin
// wiring passes the metrics registry's exemplar dump so a slow
// histogram bucket's trace ID can be looked up in place.
func (tr *Tracer) Handler(extras ...func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		ts := tr.Snapshot()
		sortTraces(ts)

		if idStr := q.Get("id"); idStr != "" {
			id, err := strconv.ParseUint(strings.TrimPrefix(idStr, "0x"), 16, 64)
			if err != nil {
				http.Error(w, "bad id: "+err.Error(), http.StatusBadRequest)
				return
			}
			for _, t := range ts {
				if t.ID() == id {
					w.Header().Set("Content-Type", "text/plain; charset=utf-8")
					writeTraceDetail(w, t)
					return
				}
			}
			http.Error(w, "trace not found (evicted, never finished, or a session the sampler did not keep)", http.StatusNotFound)
			return
		}

		ts = filterTraces(ts, q.Get("family"), q.Get("defense"), q.Get("outcome"), atoiDefault(q.Get("min_attempts"), 0))

		if q.Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			for _, t := range ts {
				if err := enc.Encode(t.Record()); err != nil {
					return
				}
			}
			return
		}

		limit := atoiDefault(q.Get("limit"), 100)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "traces: %d retained (capacity %d, %d finished total, %d not kept by sampling)\n",
			tr.Len(), tr.Cap(), tr.Finished(), tr.NotKept())
		fmt.Fprintf(w, "sampling: a session trace holds at most %d events and is kept if it sent a 4xx/5xx reply, ran longer than the running p99 (now %s), or is 1 in %d of the rest; other traces are always kept\n",
			MaxSessionEvents, tr.slowThreshold(), SampleEvery)
		writeCounts(w, tr.Counts())
		fmt.Fprintf(w, "\nshowing %d of %d matching (filters: family=%q defense=%q outcome=%q min_attempts=%s; ?id=HEX for events, ?format=jsonl for export)\n\n",
			minInt(limit, len(ts)), len(ts), q.Get("family"), q.Get("defense"), q.Get("outcome"), q.Get("min_attempts"))
		for i, t := range ts {
			if i >= limit {
				break
			}
			writeTraceLine(w, t)
		}
		for _, fn := range extras {
			if fn != nil {
				fmt.Fprintln(w)
				fn(w)
			}
		}
	})
}

func filterTraces(ts []*Trace, family, defense, outcome string, minAttempts int) []*Trace {
	if family == "" && defense == "" && outcome == "" && minAttempts <= 0 {
		return ts
	}
	out := ts[:0:0]
	for _, t := range ts {
		tags := t.Tags()
		if family != "" && tags.Family != family {
			continue
		}
		if defense != "" && tags.Defense != defense {
			continue
		}
		if outcome != "" && t.Outcome() != outcome {
			continue
		}
		if minAttempts > 0 && t.Attempts() < minAttempts {
			continue
		}
		out = append(out, t)
	}
	return out
}

func writeCounts(w io.Writer, counts map[string]uint64) {
	if len(counts) == 0 {
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "by family|outcome:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %d\n", k, counts[k])
	}
}

func writeTraceLine(w io.Writer, t *Trace) {
	tags := t.Tags()
	dur := t.End().Sub(t.Start())
	fmt.Fprintf(w, "id=%s family=%s sample=%d defense=%s rcpt=%s try=%d outcome=%s events=%d dropped=%d dur=%s\n",
		FormatID(t.ID()), tags.Family, tags.Sample, tags.Defense,
		t.Recipient(), t.Try(), t.Outcome(), t.eventCount(), t.Dropped(), dur)
}

func writeTraceDetail(w io.Writer, t *Trace) {
	writeTraceLine(w, t)
	start := t.Start()
	for _, e := range t.Events() {
		fmt.Fprintf(w, "  +%-14s %-9s %-24s code=%-4d dur=%-12s %s\n",
			e.At.Sub(start), e.Kind, e.Name, e.Code, e.Dur, e.Detail)
	}
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
