package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// EventRecord is the JSON form of one Event.
type EventRecord struct {
	Kind   string  `json:"kind"`
	At     string  `json:"at"`
	Name   string  `json:"name,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Code   int     `json:"code,omitempty"`
	DurS   float64 `json:"dur_s,omitempty"`
}

// Record is the JSON form of one finished (or live) trace — one JSONL
// line per trace.
type Record struct {
	ID         string        `json:"id"`
	Family     string        `json:"family,omitempty"`
	Defense    string        `json:"defense,omitempty"`
	Sample     int           `json:"sample,omitempty"`
	ThresholdS float64       `json:"threshold_s,omitempty"`
	Recipient  string        `json:"recipient,omitempty"`
	Try        int           `json:"try"`
	Outcome    string        `json:"outcome,omitempty"`
	Start      string        `json:"start"`
	End        string        `json:"end,omitempty"`
	Dropped    int           `json:"dropped,omitempty"` // events a sampled session's cap refused; omitted when 0
	Events     []EventRecord `json:"events"`
}

const timeLayout = time.RFC3339Nano

// FormatID renders a trace ID the way exemplars and /debug/traces
// print it: 16 hex digits.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// Record converts the trace into its JSON form.
func (t *Trace) Record() Record {
	if t == nil {
		return Record{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Record{
		ID:         FormatID(t.id),
		Family:     t.tags.Family,
		Defense:    t.tags.Defense,
		Sample:     t.tags.Sample,
		ThresholdS: t.tags.Threshold.Seconds(),
		Recipient:  t.recipient,
		Try:        t.try,
		Outcome:    t.outcome,
		Start:      t.start.UTC().Format(timeLayout),
		Dropped:    t.dropped,
		Events:     make([]EventRecord, len(t.events)),
	}
	if !t.end.IsZero() {
		r.End = t.end.UTC().Format(timeLayout)
	}
	for i, e := range t.events {
		e.render()
		r.Events[i] = EventRecord{
			Kind:   e.Kind.String(),
			At:     e.At.UTC().Format(timeLayout),
			Name:   e.Name,
			Detail: e.Detail,
			Code:   e.Code,
			DurS:   e.Dur.Seconds(),
		}
	}
	return r
}

// sortTraces orders traces deterministically — by experiment cell,
// then recipient, then retry index, then start time — so JSONL export
// is byte-stable for a given run regardless of worker scheduling. The
// trace ID (assigned from a shared counter in scheduling order) is
// only the final tiebreak.
func sortTraces(ts []*Trace) {
	sort.SliceStable(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		at, bt := a.Tags(), b.Tags()
		if at.Family != bt.Family {
			return at.Family < bt.Family
		}
		if at.Sample != bt.Sample {
			return at.Sample < bt.Sample
		}
		if at.Defense != bt.Defense {
			return at.Defense < bt.Defense
		}
		if ar, br := a.Recipient(), b.Recipient(); ar != br {
			return ar < br
		}
		if atry, btry := a.Try(), b.Try(); atry != btry {
			return atry < btry
		}
		if as, bs := a.Start(), b.Start(); !as.Equal(bs) {
			return as.Before(bs)
		}
		return a.ID() < b.ID()
	})
}

// WriteJSONL writes every retained trace as one JSON object per line,
// deterministically sorted (see sortTraces).
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	if tr == nil {
		return nil
	}
	ts := tr.Snapshot()
	sortTraces(ts)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range ts {
		if err := enc.Encode(t.Record()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
