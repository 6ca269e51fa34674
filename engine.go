package gfs

import (
	"context"

	"github.com/sjtucitlab/gfs/internal/core"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// Typed event stream, re-exported from the simulator core.
type (
	// Event is one observation from the simulator: a task lifecycle
	// change, a quota update, or a node membership change.
	Event = sched.Event
	// EventKind identifies one class of event.
	EventKind = sched.EventKind
	// EvictCause explains a TaskEvicted event.
	EvictCause = sched.EvictCause
	// Observer receives events synchronously from the simulation
	// loop.
	Observer = sched.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = sched.ObserverFunc
)

// Event kinds.
const (
	TaskArrived  = sched.TaskArrived
	TaskStarted  = sched.TaskStarted
	TaskEvicted  = sched.TaskEvicted
	TaskFinished = sched.TaskFinished
	QuotaUpdated = sched.QuotaUpdated
	// NodeDown marks a node taken down by a failure-domain outage
	// (Event.Node); a retirement announces NodeRetired instead.
	NodeDown = sched.NodeDown
	// NodeUp marks a domain restore returning a failed node to
	// service (Event.Node); it always follows that node's NodeDown.
	NodeUp = sched.NodeUp
	// AllocSampled mirrors the simulator's allocation observations
	// onto the spine (Event.Used / Event.Capacity); collectors
	// rebuild the allocation trajectory from these ticks.
	AllocSampled = sched.AllocSampled
	// NodeProvisioned marks autoscaler-delivered capacity joining the
	// cluster after its pre-warm lead (Event.Node, Event.Tier).
	NodeProvisioned = sched.NodeProvisioned
	// NodeRetired marks the start of an autoscaler retirement: the
	// node is cordoned and drains, leaving capacity when its last HP
	// pod completes (Event.Node, Event.Tier).
	NodeRetired = sched.NodeRetired
)

// Eviction causes.
const (
	CausePreempted   = sched.CausePreempted
	CauseNodeFailure = sched.CauseNodeFailure
	CauseReclaimed   = sched.CauseReclaimed
	CauseDrained     = sched.CauseDrained
)

// Engine is a composable simulation session: a cluster plus a
// scheduler, quota policy, observers and an optional scenario, built
// with functional options and run over one or more traces.
//
//	eng := gfs.NewEngine(cluster,
//		gfs.WithSystem(system),
//		gfs.WithObserver(log),
//		gfs.WithScenario(sc),
//	)
//	result := eng.Run(tasks)
//
// With no options the engine runs the full GFS stack (PTS scheduler +
// SQA quota) without a demand estimator, i.e. reactive-only quota
// management.
type Engine struct {
	cluster *Cluster
	cfg     sched.SimConfig
	// src is the streaming trace attached by WithTraceSource, drained
	// by the run.
	src TraceSource
	// collectors are the report collectors attached by
	// WithCollectors, assembled into a Report after the run.
	collectors []Collector
	// hasScheduler/hasQuota track whether options supplied them, so
	// defaults fill in only what is missing.
	hasScheduler bool
	hasQuota     bool
}

// NewEngine builds an engine over the cluster, applying options in
// order (later options win).
func NewEngine(cl *Cluster, opts ...Option) *Engine {
	e := &Engine{cluster: cl, cfg: sched.SimConfig{Cluster: cl}}
	for _, opt := range opts {
		opt(e)
	}
	if !e.hasScheduler {
		sys := core.New(core.DefaultOptions())
		e.cfg.Scheduler = sys.Scheduler
		if !e.hasQuota {
			e.cfg.Quota = sys.Quota
		}
	}
	// Collectors begin once the scheduler default is resolved, so
	// their RunMeta names the scheduler that will actually run.
	for _, c := range e.collectors {
		c.Begin(e.runMeta())
	}
	return e
}

// runMeta describes this engine's run to its collectors.
func (e *Engine) runMeta() RunMeta {
	meta := RunMeta{
		Scheduler: e.cfg.Scheduler.Name(),
		TotalGPUs: e.cluster.TotalGPUs(""),
	}
	for _, model := range e.cluster.Models() {
		meta.Pools = append(meta.Pools, PoolInfo{Model: model, GPUs: e.cluster.TotalGPUs(model)})
	}
	return meta
}

// Run executes the discrete-event simulation over the trace and
// returns its metrics. Tasks are mutated in place (lifecycle state,
// run logs), so each Run needs a fresh trace and engines are not safe
// for concurrent Runs against the same cluster. A scenario that fails
// a domain without restoring it, and an autoscaler's provisioned and
// retired nodes, leave those changes on the cluster after Run
// returns, so such an engine should run once; for sweeps, build fresh
// state per run via RunBatch. An engine with an attached trace source
// replays it through RunBatch instead; Run panics on one.
func (e *Engine) Run(tasks []*Task) *Result {
	// A background context never cancels and a task slice cannot fail
	// to decode, so the only error left is the source-plus-slice
	// misuse.
	res, err := e.run(context.Background(), tasks)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// run is the one execution path behind Run and RunBatch: the
// engine runs as a federation of one whose source is the engine's (see
// Federation.execute for the context and source rules).
func (e *Engine) run(ctx context.Context, tasks []*Task) (*Result, error) {
	solo := Federation{members: []Member{{Engine: e}}, src: e.src}
	res, err := solo.execute(ctx, tasks, nil)
	if err != nil {
		return nil, err
	}
	return res.Members[0].Result, nil
}

// report assembles a Report from the engine's collectors after the
// run; with no collectors registered it returns nil.
func (e *Engine) report() *Report {
	if len(e.collectors) == 0 {
		return nil
	}
	rep := &Report{Scheduler: e.cfg.Scheduler.Name()}
	for _, c := range e.collectors {
		c.Finish(rep)
	}
	return rep
}

// RunReport executes the run with the engine's collectors attached —
// the full default set when none were registered — and returns the
// assembled Report. Like Run, it mutates tasks and the cluster, so
// each engine reports on one run. A RunBatch spec whose engine
// registered collectors carries the same report in
// BatchResult.Report.
func (e *Engine) RunReport(tasks []*Task) *Report {
	if len(e.collectors) == 0 {
		e.collectors = DefaultCollectors()
		meta := e.runMeta()
		for _, c := range e.collectors {
			c.Begin(meta)
			e.cfg.Observers = append(e.cfg.Observers, c)
		}
	}
	e.Run(tasks)
	return e.report()
}
