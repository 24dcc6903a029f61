package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself records nothing). Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // offsets from the tracer's epoch
}

// tracer holds the spans of a traced run in memory; they are written out
// once, when the run ends. A nil *tracer is the untraced mode: begin and
// end still time the call, but nothing is recorded.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// Preallocated so recording a span does not allocate during a run.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// root begins a span that starts a new request.
func (t *tracer) root(name string) openSpan {
	s := openSpan{name: name, start: time.Now()}
	if t != nil {
		s.id = t.ids.Add(1)
		s.req = s.id
	}
	return s
}

// child begins a span caused by parent.
func (t *tracer) child(parent openSpan, name string) openSpan {
	s := openSpan{name: name, parent: parent.id, req: parent.req, start: time.Now()}
	if t != nil {
		s.id = t.ids.Add(1)
	}
	return s
}

// end closes s and returns its duration.
func (t *tracer) end(s openSpan) time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if t != nil {
		t.add(span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
			Start: s.start.Sub(t.epoch), End: now.Sub(t.epoch)})
	}
	return d
}

// addAt records a finished child of parent whose start and duration the
// caller already knows (plan steps reported by a profiled run).
func (t *tracer) addAt(parent openSpan, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.epoch)
	t.add(span{ID: t.ids.Add(1), Parent: parent.id, Req: parent.req, Name: name, Start: off, End: off + d})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// totals returns, per span name, the count, the summed duration and the
// summed self time: a span's duration minus the part of its interval
// that its children cover.
func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range t.spans {
		d := s.End - s.Start
		agg := out[s.Name]
		agg.Count++
		agg.TotalMs += ms(d)
		agg.SelfMs += ms(d - covered(s, kids[s.ID]))
		out[s.Name] = agg
	}
	return out
}

// covered returns how much of s's interval the union of kids spans.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans as a Chrome trace-event document (one track per
// request) together with the per-name totals.
func (t *tracer) write(path string) error {
	totals := t.totals()
	t.mu.Lock()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Req, Args: map[string]any{"id": s.ID, "parent": s.Parent}}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "totals": totals})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
