package perf

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are offsets
// from the tracer's creation; Parent is 0 for a root span; spans of one
// operation (a batch run or an HTTP request) share Req.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Key names the span's layer metric, e.g. "pointer.analyze".
func (s Span) Key() string { return s.Layer + "." + s.Name }

// Tracer keeps spans in memory until the run ends. Safe for concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID (IDs start at 1).
func (t *Tracer) Begin(parent, req int, layer, name string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: now, End: now})
	return id
}

// End closes the span and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return now - t.spans[id-1].Start
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// SelfTimes sums each layer metric's self time: a span's duration minus the
// part of its interval covered by the union of its children, so
// overlapping children are not subtracted twice.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Key()] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(0), time.Duration(-1)
	flush := func() {
		if curEnd > curStart {
			total += curEnd - curStart
		}
	}
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			flush()
			curStart, curEnd = start, end
		} else if end > curEnd {
			curEnd = end
		}
	}
	flush()
	return total
}
