package sched

import (
	"fmt"
	"io"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// TaskSource is the pull iterator the run loop's replay feed drains:
// Next returns tasks in non-decreasing submission order and io.EOF at
// the end of the trace. internal/trace.Source satisfies it
// structurally, so any decoded or transformed trace stream replays
// without an adapter; the package deliberately does not depend on the
// codecs.
type TaskSource interface {
	// Next returns the next task, or io.EOF when the trace ends.
	Next() (*task.Task, error)
}

// replayFeed pulls tasks from a source just ahead of the simulated
// clock, enforcing the sorted-submission contract. It holds at most
// one task of lookahead, which is what makes replay constant-memory
// on the ingestion side.
type replayFeed struct {
	src  TaskSource
	next *task.Task
	last simclock.Time
	n    int
	done bool
}

// newReplayFeed loads the first task of src; a nil source is a feed
// that is already dry.
func newReplayFeed(src TaskSource) (replayFeed, error) {
	f := replayFeed{src: src, done: src == nil}
	return f, f.pull()
}

// drain hands inject every task due at or before the next pending
// instant — next reports it, false when nothing is pending — so an
// arrival is always queued before the clock steps past its submission
// time.
func (f *replayFeed) drain(next func() (simclock.Time, bool), inject func(*task.Task)) error {
	for f.next != nil {
		if at, ok := next(); ok && f.next.Submit > at {
			return nil
		}
		tk := f.next
		if err := f.pull(); err != nil {
			return err
		}
		inject(tk)
	}
	return nil
}

// pull loads the next task into the lookahead slot.
func (f *replayFeed) pull() error {
	if f.done {
		return nil
	}
	tk, err := f.src.Next()
	if err == io.EOF {
		f.next, f.done = nil, true
		return nil
	}
	if err != nil {
		return err
	}
	if tk == nil {
		return fmt.Errorf("sched: replay source returned a nil task")
	}
	if f.n > 0 && tk.Submit < f.last {
		return fmt.Errorf("sched: replay requires submission order: task %d submits at %d after %d (sort or rebase the trace first)",
			tk.ID, tk.Submit, f.last)
	}
	f.last = tk.Submit
	f.n++
	f.next = tk
	return nil
}
