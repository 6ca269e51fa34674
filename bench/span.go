package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// A recorder keeps the spans and counters of one goroutine's work in
// memory. Spans nest: begin pushes a frame, end pops it, and a span's
// self time is its duration minus the part its children covered, so
// the self times of a tree sum to the root's duration. Aggregates are
// kept for every span; the individual records (for the trace file) are
// kept up to maxSpans. A nil recorder records nothing, which is how
// the untraced pass runs the same wrappers' call sites.
//
// A recorder is not safe for concurrent use: concurrent workloads give
// each goroutine its own and merge them afterwards.
type recorder struct {
	epoch    time.Time
	op       int32
	stack    []frame
	agg      map[string]*spanAgg
	spans    []span
	dropped  int
	counters map[string]float64
	// keep lists the span names whose individual durations are kept
	// for percentiles.
	keep map[string]bool
}

// maxSpans bounds the records kept for the trace file (32 B each);
// aggregates stay exact beyond it.
const maxSpans = 1 << 21

type frame struct {
	name    string
	start   time.Duration
	childNs time.Duration
	index   int32 // into spans, -1 when dropped
}

// span is one recorded interval: times are offsets from the
// recorder's epoch, parent indexes spans (-1 for a root), and op
// numbers the operation (the request identifier of the guide).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	op         int32
}

// spanAgg sums the spans sharing a name.
type spanAgg struct {
	count     int64
	total     time.Duration
	self      time.Duration
	durations []time.Duration
}

func newRecorder(keep ...string) *recorder {
	r := &recorder{
		epoch:    time.Now(),
		agg:      make(map[string]*spanAgg),
		counters: make(map[string]float64),
		keep:     make(map[string]bool),
	}
	for _, k := range keep {
		r.keep[k] = true
	}
	return r
}

// nextOp starts a new operation: spans begun from now on carry its
// number.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.beginAt(name, time.Since(r.epoch))
}

func (r *recorder) beginAt(name string, at time.Duration) {
	f := frame{name: name, start: at, index: -1}
	if len(r.spans) < maxSpans {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].index
		}
		f.index = int32(len(r.spans))
		r.spans = append(r.spans, span{name: name, start: at, parent: parent, op: r.op})
	} else {
		r.dropped++
	}
	r.stack = append(r.stack, f)
}

// end closes the innermost open span and returns its duration.
func (r *recorder) end() time.Duration {
	if r == nil {
		return 0
	}
	return r.endAt(time.Since(r.epoch))
}

func (r *recorder) endAt(at time.Duration) time.Duration {
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	dur := at - f.start
	if f.index >= 0 {
		r.spans[f.index].end = at
	}
	a := r.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		r.agg[f.name] = a
	}
	a.count++
	a.total += dur
	a.self += dur - f.childNs
	if r.keep[f.name] {
		a.durations = append(a.durations, dur)
	}
	if n > 0 {
		r.stack[n-1].childNs += dur
	}
	return dur
}

// add bumps a counter.
func (r *recorder) add(name string, v float64) {
	if r != nil {
		r.counters[name] += v
	}
}

// of returns the aggregate for a span name (zero when never seen).
func (r *recorder) of(name string) spanAgg {
	if a := r.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// merge folds another recorder's aggregates and counters into r; the
// other's span records are appended with their parents re-based.
func (r *recorder) merge(o *recorder) {
	for name, a := range o.agg {
		dst := r.agg[name]
		if dst == nil {
			dst = &spanAgg{}
			r.agg[name] = dst
		}
		dst.count += a.count
		dst.total += a.total
		dst.self += a.self
		dst.durations = append(dst.durations, a.durations...)
	}
	for name, v := range o.counters {
		r.counters[name] += v
	}
	shift := o.epoch.Sub(r.epoch)
	base := int32(len(r.spans))
	for _, s := range o.spans {
		if len(r.spans) >= maxSpans {
			r.dropped++
			continue
		}
		s.start += shift
		s.end += shift
		if s.parent >= 0 {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
	r.dropped += o.dropped
}

// traceEvent is one Chrome trace-event record ("X" = complete event,
// "C" = counter); times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the kept spans and the counters as Chrome
// trace-event JSON (chrome://tracing, Perfetto). Each operation is
// one track.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	events := make([]traceEvent, 0, len(r.spans)+len(r.counters))
	for i, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent},
		})
	}
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		events = append(events, traceEvent{
			Name: name, Ph: "C", Pid: 1,
			Args: map[string]any{"value": r.counters[name]},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		DroppedSpans    int          `json:"droppedSpans"`
	}{events, "ms", r.dropped})
}
