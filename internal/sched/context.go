package sched

import (
	"context"

	"github.com/sjtucitlab/gfs/internal/task"
)

// This file holds the run loops. Each checks its context once per
// simulator step (per shared-clock instant in a federation), so a
// cancelled run returns ctx.Err() within one step of the signal — the
// mechanism behind DELETE /v1/sessions/{id} in gfsd — with its tasks
// left in whatever lifecycle state they reached and no goroutine behind
// it: the simulator never spawns any.

// stopped reports whether done, a context's Done channel, has fired. A
// background context's channel is nil and a receive from nil never
// proceeds, so a run that cannot be cancelled pays the default arm.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// RunContext executes the simulation over the given trace.
func RunContext(ctx context.Context, cfg SimConfig, tasks []*task.Task) (*Result, error) {
	return replay(ctx, NewSimulator(cfg, tasks), nil)
}

// RunSourceContext executes the simulation over a streamed trace:
// tasks are pulled from src one at a time and Injected as the clock
// reaches their submission times. What that keeps constant-memory is
// decoding and ingestion — one task of lookahead, never the whole
// trace in a slice before the run starts; the simulator itself still
// grows with the trace, keeping every injected task for the Result and
// its ID for the re-injection check. The source must yield tasks in
// non-decreasing submission order (as every trace codec in this module
// does) with unique positive IDs: the epoch and dedup bookkeeping key
// on them, a repeated ID is taken for a re-injection rather than
// reported, and the codecs reject non-positive IDs at decode. The
// source is not closed here: callers own it.
//
// A streamed run is event-for-event identical to Run over the same
// trace, with one caveat: if the simulator goes completely idle
// between two arrivals (nothing queued, running or pending for longer
// than the quota interval), the quota tick chain re-anchors at the
// next arrival instead of keeping the original phase, since a
// streaming simulator cannot see into its future.
func RunSourceContext(ctx context.Context, cfg SimConfig, src TaskSource) (*Result, error) {
	return replay(ctx, NewSimulator(cfg, nil), src)
}

// replay steps s dry, first injecting at every step the tasks src (nil
// for a preloaded trace) has due before the clock moves past them.
func replay(ctx context.Context, s *Simulator, src TaskSource) (*Result, error) {
	feed, err := newReplayFeed(src)
	if err != nil {
		return nil, err
	}
	inject := func(tk *task.Task) { s.Inject(tk, tk.Submit) }
	for done := ctx.Done(); !stopped(done); {
		if err := feed.drain(s.PeekTime, inject); err != nil {
			return nil, err
		}
		if !s.Step() {
			return s.Finish(), nil
		}
	}
	return nil, ctx.Err()
}

// RunFederationContext executes a federated simulation: tasks arrive
// on the shared clock, the route policy admits each to one member,
// members advance in lockstep, and capacity-loss victims spill over
// per the spillover policy. The run is deterministic in (config,
// trace). tasks are queued up front; src, when non-nil, streams
// further arrivals in just ahead of the shared clock instead (it must
// yield tasks in non-decreasing submission order). Cancellation, a bad
// configuration and a failing source are the only errors.
func RunFederationContext(ctx context.Context, cfg FedConfig, tasks []*task.Task, src TaskSource) (*FedResult, error) {
	f, err := newFedSim(cfg)
	if err != nil {
		return nil, err
	}
	for _, tk := range tasks {
		f.queue.PushFront(tk.Submit, tk)
	}
	if f.feed, err = newReplayFeed(src); err != nil {
		return nil, err
	}
	if err := f.loop(ctx); err != nil {
		return nil, err
	}
	return f.finish(), nil
}
