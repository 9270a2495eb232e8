package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation share Op; Parent is the enclosing span's ID (0 for
// none). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every timed call goes
// through it, so traced and untraced operations share one code path. In a
// traced run only even-numbered operations record spans; the odd ones are
// the untraced baseline the tracing overhead is measured against.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	record bool
	spans  []span
}

func newTracer(record bool) *tracer { return &tracer{t0: time.Now(), record: record} }

// traces reports whether operation op records spans.
func (t *tracer) traces(op uint64) bool { return t.record && op%2 == 0 }

// timer is an open span.
type timer struct {
	t      *tracer
	id     int
	parent int
	op     uint64
	name   string
	start  time.Time
}

// start opens a span named after the layer call it times.
func (t *tracer) start(name string, parent int, op uint64) timer {
	tm := timer{t: t, parent: parent, op: op, name: name}
	if t.traces(op) {
		t.mu.Lock()
		t.spans = append(t.spans, span{}) // reserve the ID so children can point at it
		tm.id = len(t.spans)
		t.mu.Unlock()
	}
	tm.start = time.Now()
	return tm
}

// stop closes the span and returns its duration.
func (tm timer) stop() time.Duration {
	end := time.Now()
	d := end.Sub(tm.start)
	if tm.id > 0 {
		tm.t.mu.Lock()
		tm.t.spans[tm.id-1] = span{ID: tm.id, Parent: tm.parent, Op: tm.op, Name: tm.name,
			Start: tm.start.Sub(tm.t.t0).Nanoseconds(), End: end.Sub(tm.t.t0).Nanoseconds()}
		tm.t.mu.Unlock()
	}
	return d
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, op uint64, fn func()) time.Duration {
	tm := t.start(name, parent, op)
	fn()
	return tm.stop()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, the total time and the self time: each
// span's duration minus the time its direct children cover.
func selfTimes(spans []span) map[string][2]time.Duration {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][2]time.Duration)
	for _, s := range spans {
		v := out[s.Name]
		dur := s.End - s.Start
		v[0] += time.Duration(dur)
		v[1] += time.Duration(dur - child[s.ID])
		out[s.Name] = v
	}
	return out
}

// printSelfTimes writes the per-layer self-time table, largest first.
func printSelfTimes(w io.Writer, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][1] > st[names[j]][1] })
	fmt.Fprintf(w, "spans: %d recorded; self time per layer call:\n", len(spans))
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s total %10.1f ms  self %10.1f ms\n", n, ms(st[n][0]), ms(st[n][1]))
	}
}
