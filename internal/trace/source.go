package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Source is a pull-based trace iterator: the streaming counterpart of
// a []*task.Task slice. Next returns tasks one at a time in file
// order (io.EOF when the stream is exhausted), so arbitrarily large
// traces flow through decoders, transforms and the replay loop in
// constant memory — the full task slice is never materialized unless
// the caller Collects it.
//
// Sources are single-use and not safe for concurrent Next calls.
// Close releases the underlying reader (file, gzip stream); it is
// safe to call after Next returned io.EOF or an error, and a Close of
// a sliceSource or transform with no underlying reader is a no-op.
type Source interface {
	// Next returns the next task, or io.EOF when the stream ends.
	// After a non-nil error every subsequent call returns an error.
	Next() (*task.Task, error)
	// Close releases the source's underlying resources.
	Close() error
}

// SliceSource adapts an in-memory task slice to the Source interface,
// yielding the tasks in slice order. It lets slice-based callers flow
// through the streaming replay and transform pipeline unchanged.
func SliceSource(tasks []*task.Task) Source {
	return &sliceSource{tasks: tasks}
}

type sliceSource struct {
	tasks []*task.Task
	i     int
}

func (s *sliceSource) Next() (*task.Task, error) {
	if s.i >= len(s.tasks) {
		return nil, io.EOF
	}
	tk := s.tasks[s.i]
	s.i++
	return tk, nil
}

func (s *sliceSource) Close() error { return nil }

// Collect drains the source into a slice, closing it afterwards. It
// is the bridge back to the slice-based APIs — and the one place the
// full trace is materialized, so keep it off ingestion hot paths.
func Collect(src Source) ([]*task.Task, error) {
	defer src.Close()
	var out []*task.Task
	for {
		tk, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, tk)
	}
}

// transformSource wraps an inner source with a per-task function that
// may rewrite the task, drop it (nil, nil), or end the stream early
// (nil, io.EOF).
type transformSource struct {
	inner Source
	fn    func(*task.Task) (*task.Task, error)
	done  bool
}

func (t *transformSource) Next() (*task.Task, error) {
	for {
		if t.done {
			return nil, io.EOF
		}
		tk, err := t.inner.Next()
		if err != nil {
			return nil, err
		}
		tk, err = t.fn(tk)
		if err == io.EOF {
			// The transform ended the stream (a closed time window);
			// remaining inner tasks are deliberately unread.
			t.done = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if tk != nil {
			return tk, nil
		}
	}
}

func (t *transformSource) Close() error { return t.inner.Close() }

// Rebase shifts every task's submission time by the same offset so
// the first task submits at start. External traces rarely begin at
// the simulation epoch; rebasing to 0 aligns them with the diurnal
// machinery (hour-of-day features, ticks), which assumes the epoch is
// midnight. The offset is derived from the first task, so the input
// must be sorted by submission time (as every trace codec emits).
func Rebase(src Source, start simclock.Time) Source {
	first := true
	var offset simclock.Time
	return &transformSource{inner: src, fn: func(tk *task.Task) (*task.Task, error) {
		if first {
			offset = start - tk.Submit
			first = false
		}
		tk.Submit += offset
		return tk, nil
	}}
}

// RateScale compresses or stretches the arrival process: every
// submission time is divided by factor, so factor 2 replays the trace
// at twice the arrival rate (double load) and factor 0.5 at half.
// Durations are untouched — rate scaling changes how fast work
// arrives, not how big it is.
func RateScale(src Source, factor float64) Source {
	if factor <= 0 || math.IsInf(factor, 0) || math.IsNaN(factor) {
		// Fail deterministically on the first pull, even over an
		// empty stream, instead of re-validating per task.
		return &failSource{
			inner: src,
			err:   fmt.Errorf("trace: rate-scale factor %v out of range (need finite > 0)", factor),
		}
	}
	return &transformSource{inner: src, fn: func(tk *task.Task) (*task.Task, error) {
		tk.Submit = simclock.Time(float64(tk.Submit) / factor)
		return tk, nil
	}}
}

// failSource reports a construction-time configuration error on
// every pull, still closing the stream it replaced.
type failSource struct {
	inner Source
	err   error
}

func (f *failSource) Next() (*task.Task, error) { return nil, f.err }

func (f *failSource) Close() error { return f.inner.Close() }

// HeadWindow keeps only the first span of trace time, measured from
// the first task's own submission, so it works on dumps anchored at
// any epoch. It ends the stream at the first task past the window, so
// nothing beyond it is decoded.
func HeadWindow(src Source, span simclock.Duration) Source {
	first := true
	var end simclock.Time
	return &transformSource{inner: src, fn: func(tk *task.Task) (*task.Task, error) {
		if first {
			end = tk.Submit.Add(span)
			first = false
		}
		if tk.Submit >= end {
			return nil, io.EOF
		}
		return tk, nil
	}}
}

// SortBySubmit returns a source yielding the input's tasks ordered by
// submission time (ties keep input order). Sorting a stream requires
// materializing it, so this is the one transform that is NOT
// constant-memory — it exists as the escape hatch for external traces
// whose rows are not already sorted, which the replay loop requires.
// The input is drained and closed on the first Next call.
func SortBySubmit(src Source) Source {
	return &sortedSource{src: src}
}

type sortedSource struct {
	src    Source
	sorted Source
	err    error
}

func (s *sortedSource) Next() (*task.Task, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.sorted == nil {
		tasks, err := Collect(s.src) // closes src
		if err != nil {
			s.err = err
			return nil, err
		}
		sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Submit < tasks[j].Submit })
		s.sorted = SliceSource(tasks)
	}
	return s.sorted.Next()
}

func (s *sortedSource) Close() error {
	if s.sorted == nil && s.err == nil {
		return s.src.Close()
	}
	return nil
}

// ErrUnsorted is wrapped by errors reported when a streaming consumer
// (replay, validation) encounters submission times out of order.
var ErrUnsorted = errors.New("submission times out of order")

// Validate drains the source, checking each task's fields, the
// stream's submission-time ordering, and ID uniqueness, and returns
// the number of valid tasks. It fails fast: the first malformed task
// or decode error is returned with its position. Field and ordering
// checks stream; the uniqueness check keeps a set of seen IDs (the
// one property replay relies on that a constant-memory pass cannot
// certify, which is exactly why the offline validator does).
func Validate(src Source) (int, error) {
	defer src.Close()
	n := 0
	last := simclock.Time(math.MinInt64)
	seen := make(map[int]struct{})
	for {
		tk, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := CheckTask(tk); err != nil {
			return n, fmt.Errorf("trace: task %d (stream position %d): %w", tk.ID, n+1, err)
		}
		if tk.Submit < last {
			return n, fmt.Errorf("trace: task %d (stream position %d): submit %d precedes %d: %w",
				tk.ID, n+1, tk.Submit, last, ErrUnsorted)
		}
		if _, dup := seen[tk.ID]; dup {
			return n, fmt.Errorf("trace: task %d (stream position %d): duplicate id (replay bookkeeping requires unique ids)",
				tk.ID, n+1)
		}
		seen[tk.ID] = struct{}{}
		last = tk.Submit
		n++
	}
}

// CheckTask verifies one task's fields are usable by the simulator:
// positive finite shape, non-negative times, a known type. The
// streaming decoders apply the same checks, so a Source built by this
// package never yields a task that fails CheckTask.
func CheckTask(tk *task.Task) error {
	switch {
	case tk.ID < 1:
		// Replay accounting keys on IDs (migration bookkeeping, Inject
		// dedup), so a missing or zero id field cannot pass.
		return fmt.Errorf("id %d < 1", tk.ID)
	case tk.Pods < 1:
		return fmt.Errorf("pods %d < 1", tk.Pods)
	case !(tk.GPUsPerPod > 0) || math.IsInf(tk.GPUsPerPod, 0):
		return fmt.Errorf("gpus_per_pod %v not a positive finite number", tk.GPUsPerPod)
	case tk.Duration <= 0:
		return fmt.Errorf("duration %d not positive", tk.Duration)
	case tk.CheckpointEvery < 0:
		return fmt.Errorf("checkpoint interval %d negative", tk.CheckpointEvery)
	case tk.Submit < 0:
		return fmt.Errorf("submit %d negative", tk.Submit)
	case tk.Type != task.Spot && tk.Type != task.HP:
		return fmt.Errorf("unknown task type %d", tk.Type)
	}
	return nil
}
