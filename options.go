package gfs

// Option configures an Engine at construction.
type Option func(*Engine)

// WithScheduler selects the placement scheduler (GFS PTS or any
// baseline). Without WithQuota the spot quota stays unlimited.
func WithScheduler(s Scheduler) Option {
	return func(e *Engine) {
		e.cfg.Scheduler = s
		e.hasScheduler = true
	}
}

// WithSystem installs an assembled GFS system: its PTS scheduler and
// its GDE/SQA quota policy.
func WithSystem(sys *System) Option {
	return func(e *Engine) {
		e.cfg.Scheduler = sys.Scheduler
		e.cfg.Quota = sys.Quota
		e.hasScheduler = true
		e.hasQuota = true
	}
}

// WithQuota sets the spot quota policy (nil = unlimited).
func WithQuota(q QuotaPolicy) Option {
	return func(e *Engine) {
		e.cfg.Quota = q
		e.hasQuota = true
	}
}

// WithInitialOrgDemand seeds per-organization hourly demand history
// so quota forecasts have context from hour zero.
func WithInitialOrgDemand(panel map[string][]float64) Option {
	return func(e *Engine) { e.cfg.InitialOrgDemand = panel }
}

// WithObserver registers observers for the typed event stream. It may
// be repeated; observers receive events in registration order. With
// no observers the simulator pays no emission cost.
func WithObserver(obs ...Observer) Option {
	return func(e *Engine) { e.cfg.Observers = append(e.cfg.Observers, obs...) }
}

// WithCollectors registers report collectors: each joins the event
// stream as an observer and contributes its section to the Report
// that Engine.RunReport or a RunBatch assembles after the run. It may
// be repeated; collectors receive events (and report) in registration
// order. Use
// DefaultCollectors for the full built-in set, or compose any subset
// with custom Collector implementations.
func WithCollectors(cs ...Collector) Option {
	return func(e *Engine) {
		e.collectors = append(e.collectors, cs...)
		for _, c := range cs {
			e.cfg.Observers = append(e.cfg.Observers, c)
		}
	}
}

// WithScenario injects a scenario's timed cluster mutations into the
// run's event queue.
func WithScenario(sc *Scenario) Option {
	return func(e *Engine) {
		if sc != nil {
			e.cfg.Scenario = append(e.cfg.Scenario, sc.sorted()...)
		}
	}
}

// WithShards is accepted and ignored: the run is serial whatever n
// is. The intra-run sharded core it selected measured slower than the
// serial engine on its best case and was deleted (docs/performance.md,
// "Sharding verdict"); to use several cores, spread runs over them
// with RunBatch.
//
// Deprecated: the option has no effect and will be removed.
func WithShards(n int) Option {
	return func(*Engine) {}
}

// WithTraceSource attaches a streaming trace to the engine for
// replay: Engine.RunTrace pulls tasks from the source as the
// simulated clock reaches their submission times, through the same
// arrival cursor a preloaded trace takes, so the trace is never
// materialized. The source must yield tasks in non-decreasing
// submission order (every codec in this module does) and, being
// single-use, supports exactly one RunTrace.
func WithTraceSource(src TraceSource) Option {
	return func(e *Engine) { e.src = src }
}
