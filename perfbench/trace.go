package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thalia/internal/benchmark"
	"thalia/internal/integration"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Op; Parent is
// the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64
	Parent int64
	Op     int64
	Layer  string
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how the
// untraced runs that produce end-to-end metrics stay free of it.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// id allocates a span ID, so a parent can be named before it ends.
func (t *tracer) id() int64 { return t.next.Add(1) }

// add records a finished span, allocating its ID when it has none.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// children groups spans by parent ID.
func children(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's: overlapping children (a worker pool runs several at once)
// count once.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, kids []span) time.Duration { return s.dur() - covered(s, kids) }

// layerTime is one layer's share of a trace.
type layerTime struct {
	Layer   string  `json:"layer"`
	Spans   int     `json:"spans"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// layerTimes computes every layer's span count, total and self time.
func layerTimes(spans []span) []layerTime {
	kids := children(spans)
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		lt.Spans++
		lt.TotalUS += us(s.dur())
		lt.SelfUS += us(selfTime(s, kids[s.ID]))
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUS > out[j].SelfUS })
	return out
}

// maxWrittenSpans caps the spans a trace file lists; layer times are
// always computed from every span.
const maxWrittenSpans = 20000

// writeTrace writes the spans and the per-layer self times to path.
func writeTrace(path string, env map[string]any, spans []span) error {
	type jspan struct {
		ID      int64   `json:"id"`
		Parent  int64   `json:"parent,omitempty"`
		Op      int64   `json:"op"`
		Layer   string  `json:"layer"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	}
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
		for _, s := range spans {
			if s.Start.Before(epoch) {
				epoch = s.Start
			}
		}
	}
	out := struct {
		Env     map[string]any `json:"env"`
		Layers  []layerTime    `json:"layers"`
		Total   int            `json:"spans_total"`
		Written int            `json:"spans_written"`
		Spans   []jspan        `json:"spans"`
	}{Env: env, Layers: layerTimes(spans), Total: len(spans)}
	for i, s := range spans {
		if i == maxWrittenSpans {
			break
		}
		out.Spans = append(out.Spans, jspan{s.ID, s.Parent, s.Op, s.Layer, s.Name, us(s.Start.Sub(epoch)), us(s.dur())})
	}
	out.Written = len(out.Spans)
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedSystem is a timing decorator around an integration.System: every
// Answer call becomes a span of the system's layer under the enclosing run
// span. The first call on the instance is named first_answer, because it
// pays for whatever the system builds lazily.
type timedSystem struct {
	integration.System
	layer  string
	tr     *tracer
	op     int64
	parent int64
	called atomic.Bool
	// keep, when set, sees every answer (the benchmark replays MatchRows
	// on them afterwards).
	keep func(req integration.Request, ans *integration.Answer)
}

func (s *timedSystem) Answer(req integration.Request) (*integration.Answer, error) {
	start := time.Now()
	ans, err := s.System.Answer(req)
	end := time.Now()
	name := "answer"
	if s.called.CompareAndSwap(false, true) {
		name = "first_answer"
	}
	s.tr.add(span{Parent: s.parent, Op: s.op, Layer: s.layer, Name: name, Start: start, End: end})
	if err == nil && s.keep != nil {
		s.keep(req, ans)
	}
	return ans, err
}

// timedQueries rebuilds queries so that each Expected call becomes a span
// of the benchmark layer's expected-answer computation.
func timedQueries(qs []*benchmark.Query, tr *tracer, op, parent int64, layer string, keep func(id int, rows []integration.Row)) []*benchmark.Query {
	out := make([]*benchmark.Query, len(qs))
	for i, q := range qs {
		q := q
		out[i] = benchmark.NewQuery(q.ID, q.Case, q.Name, q.XQuery, q.Reference, q.ChallengeSource, q.Fields,
			func() ([]integration.Row, error) {
				start := time.Now()
				rows, err := q.Expected()
				tr.add(span{Parent: parent, Op: op, Layer: layer, Name: "expected", Start: start, End: time.Now()})
				if err == nil && keep != nil {
					keep(q.ID, rows)
				}
				return rows, err
			})
	}
	return out
}
