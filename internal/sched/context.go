package sched

import (
	"context"

	"github.com/sjtucitlab/gfs/internal/task"
)

// This file threads context.Context through every run loop so
// long-running simulations can be cancelled cooperatively — the
// mechanism behind DELETE /v1/sessions/{id} in the gfsd service. The
// cancellation check runs at simulator-step granularity: a cancelled
// run returns within one Step of the signal, leaving no goroutines
// behind (the simulator itself never spawns any). Run, the one
// ctx-free entry point, is a thin wrapper over RunContext, so a
// background context — whose Done channel is nil — costs the hot loop
// nothing.

// RunContext executes the simulation over the given trace, checking
// ctx between simulator steps: on cancellation it returns ctx.Err()
// promptly, with the partially-run trace's tasks left in whatever
// lifecycle state they reached. A nil-Done context (context.Background)
// runs the exact loop Run does.
func RunContext(ctx context.Context, cfg SimConfig, tasks []*task.Task) (*Result, error) {
	s := NewSimulator(cfg, tasks)
	done := ctx.Done()
	if done == nil {
		for s.Step() {
		}
		return s.Finish(), nil
	}
	for s.Step() {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	return s.Finish(), nil
}

// RunSourceContext executes the simulation over a streamed trace:
// tasks are pulled from src one at a time and Injected as the clock
// reaches their submission times, so ingestion never materializes the
// trace. The source must yield tasks in non-decreasing submission
// order (as every trace codec in this module does) with unique
// positive IDs — the simulator's epoch and dedup bookkeeping key on
// them, and checking uniqueness here would cost the O(trace) memory
// streaming exists to avoid (the codecs reject non-positive IDs at
// decode). ctx is checked once per simulator step; on cancellation
// the replay returns ctx.Err() promptly. The source is not closed
// here: callers own it.
//
// A streamed run is event-for-event identical to Run over the same
// trace, with one caveat: if the simulator goes completely idle
// between two arrivals (nothing queued, running or pending for longer
// than the quota interval), the quota tick chain re-anchors at the
// next arrival instead of keeping the original phase, since a
// streaming simulator cannot see into its future.
func RunSourceContext(ctx context.Context, cfg SimConfig, src TaskSource) (*Result, error) {
	s := NewSimulator(cfg, nil)
	feed := &replayFeed{src: src}
	if err := feed.pull(); err != nil {
		return nil, err
	}
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		// Inject every task due at or before the next pending event,
		// so an arrival is always queued before the clock steps past
		// its submission time.
		for feed.next != nil {
			if at, ok := s.PeekTime(); ok && feed.next.Submit > at {
				break
			}
			tk := feed.next
			if err := feed.pull(); err != nil {
				return nil, err
			}
			s.Inject(tk, tk.Submit)
		}
		if !s.Step() {
			break
		}
	}
	return s.Finish(), nil
}

// RunFederationContext executes a federated simulation: tasks arrive
// on the shared clock, the route policy admits each to one member,
// members advance in lockstep, and capacity-loss victims spill over
// per the spillover policy. The run is deterministic in (config,
// trace). tasks are queued up front; src, when non-nil, streams
// further arrivals in just ahead of the shared clock instead, so the
// routing loop ingests arbitrarily large traces in constant memory (it
// must yield tasks in non-decreasing submission order). The
// shared-clock loop checks ctx once per instant and returns ctx.Err()
// promptly when cancelled; a bad configuration and a failing source
// are the only other errors.
func RunFederationContext(ctx context.Context, cfg FedConfig, tasks []*task.Task, src TaskSource) (*FedResult, error) {
	f, err := newFedSim(cfg)
	if err != nil {
		return nil, err
	}
	f.ctx = ctx
	for _, tk := range tasks {
		f.queue.PushFront(tk.Submit, tk)
	}
	if src != nil {
		f.feed = &replayFeed{src: src}
		if err := f.feed.pull(); err != nil {
			return nil, err
		}
	}
	if err := f.loop(); err != nil {
		return nil, err
	}
	return f.finish(), nil
}
