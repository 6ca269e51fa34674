package sched

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// TaskSource is the pull iterator a replay feed drains: Next returns
// tasks in non-decreasing submission order and io.EOF at the end of
// the trace. internal/trace.Source satisfies it structurally, so any
// decoded or transformed trace stream replays without an adapter; the
// package deliberately does not depend on the codecs.
type TaskSource interface {
	// Next returns the next task, or io.EOF when the trace ends.
	Next() (*task.Task, error)
}

// replayFeed is a run's one arrival cursor. It walks a trace — a
// preloaded slice in stable Submit order, or a source whose sorted
// submission it enforces — one task ahead of the clock: next is the
// next arrival due, nil once the trace is dry. Holding one task of
// lookahead keeps a streamed replay constant-memory on the ingestion
// side, and the task order is the same either way.
type replayFeed struct {
	tasks []*task.Task
	// src is the stream, nil for a preload. It is dropped at io.EOF,
	// which comes only after next took the stream's last task, so a
	// non-nil src marks next as streamed.
	src  TaskSource
	next *task.Task
	last simclock.Time
	n    int
	// err is the source's failure; the feed is dry after it.
	err error
}

// newReplayFeed loads the first task of the trace: tasks (a stably
// sorted copy when they are out of Submit order) or src.
func newReplayFeed(tasks []*task.Task, src TaskSource) replayFeed {
	if !slices.IsSortedFunc(tasks, bySubmit) {
		tasks = slices.Clone(tasks)
		slices.SortStableFunc(tasks, bySubmit)
	}
	f := replayFeed{tasks: tasks, src: src}
	f.pull()
	return f
}

func bySubmit(a, b *task.Task) int { return cmp.Compare(a.Submit, b.Submit) }

// take returns the next arrival and loads the one after it.
func (f *replayFeed) take() *task.Task {
	tk := f.next
	f.pull()
	return tk
}

// pull loads the next task into the lookahead slot.
func (f *replayFeed) pull() {
	f.next = nil
	if len(f.tasks) > 0 {
		f.next, f.tasks = f.tasks[0], f.tasks[1:]
		return
	}
	if f.src == nil || f.err != nil {
		return
	}
	tk, err := f.src.Next()
	switch {
	case err == io.EOF:
		f.src = nil
	case err != nil:
		f.err = err
	case tk == nil:
		f.err = fmt.Errorf("sched: replay source returned a nil task")
	case f.n > 0 && tk.Submit < f.last:
		f.err = fmt.Errorf("sched: replay requires submission order: task %d submits at %d after %d (sort or rebase the trace first)",
			tk.ID, tk.Submit, f.last)
	default:
		f.last = tk.Submit
		f.n++
		f.next = tk
	}
}
