package gfs

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// Federation types, re-exported from the simulator core.
type (
	// RoutePolicy admits each arriving task to one federation member.
	RoutePolicy = sched.RoutePolicy
	// SpilloverPolicy migrates capacity-loss victims across members.
	SpilloverPolicy = sched.SpilloverPolicy
	// RouteContext is a RoutePolicy's decision input.
	RouteContext = sched.RouteContext
	// SpillContext is a SpilloverPolicy's decision input.
	SpillContext = sched.SpillContext
	// MemberState is the live per-member view policies decide over.
	MemberState = sched.MemberState
	// FederationResult aggregates a federated run.
	FederationResult = sched.FedResult
)

// Federation event kinds (see Event.Member and Event.Target).
const (
	// TaskMigrated fires when a spilled task lands on its new member.
	TaskMigrated = sched.TaskMigrated
	// ClusterSaturated fires when a member cannot hold its workload.
	ClusterSaturated = sched.ClusterSaturated
)

// RouteLeastLoaded routes each task to the member with the highest
// free-capacity fraction.
func RouteLeastLoaded() RoutePolicy { return sched.RouteLeastLoaded{} }

// RouteCheapestSpot routes spot tasks to the cheapest member with
// room (HP tasks go least-loaded).
func RouteCheapestSpot() RoutePolicy { return sched.RouteCheapestSpot{} }

// RouteForecastAware routes to the member with the most free capacity
// discounted by its forecast spot reclamation over the task's
// runtime (see Member.Profile).
func RouteForecastAware() RoutePolicy { return sched.RouteForecastAware{} }

// RouteRoundRobin deals tasks to members in rotation regardless of
// state — the static split modelling isolated clusters, used as the
// baseline federation routing is compared against.
func RouteRoundRobin() RoutePolicy { return &sched.RouteRoundRobin{} }

// Member is one federation member: a named Engine (cluster +
// scheduler + quota + scenario) plus the forecast signal routing
// policies read. Every member prices its GPU models with the
// representative on-demand list prices of internal/pricing.
type Member struct {
	// Name uniquely identifies the member within the federation.
	Name string
	// Engine is the member's fully configured simulation session.
	// Its scenario, quota policy and observers all apply to the
	// member's share of the federated run.
	Engine *Engine
	// Profile optionally forecasts the member's diurnal spot
	// reclamation; RouteForecastAware steers spot tasks away from
	// members heading into their reclamation peak.
	Profile *DiurnalProfile
}

// spotPrice derives the member's effective $/GPU-hour for spot
// capacity, which feeds RouteCheapestSpot: the cheapest priced model
// in its cluster at the spot realization margin. Members whose models
// are all unpriced fall back to the table mean so price-aware routing
// still ranks them.
func (m Member) spotPrice() float64 {
	tbl := pricing.DefaultTable()
	best := 0.0
	for _, model := range m.Engine.cluster.Models() {
		if p := tbl[model]; p > 0 && (best == 0 || p < best) {
			best = p
		}
	}
	if best == 0 {
		// Average over the table in sorted-key order: float summation
		// folds left to right, so map order here would leak into the
		// routed price.
		models := make([]string, 0, len(tbl))
		for model := range tbl {
			models = append(models, model)
		}
		sort.Strings(models)
		for _, model := range models {
			best += tbl[model]
		}
		if len(models) > 0 {
			best /= float64(len(models))
		}
	}
	return best * pricing.DefaultSpotMargin
}

// Federation composes named member clusters into one scheduling
// domain: a route policy admits each arriving task to one member, the
// members advance in lockstep on a shared simulated clock, and
// capacity-loss evictions (storms, domain failures, reclamation)
// spill over to sibling members after a migration delay.
//
//	fed := gfs.NewFederation([]gfs.Member{
//		{Name: "west", Engine: gfs.NewEngine(clWest, gfs.WithScenario(storm))},
//		{Name: "east", Engine: gfs.NewEngine(clEast)},
//	}, gfs.WithRoute(gfs.RouteCheapestSpot()))
//	res := fed.Run(tasks)
//	fmt.Println(res.Member("east").MigratedIn)
//
// Federated runs honor the RunBatch determinism contract: the same
// members, policies and trace produce byte-identical event logs and
// results at any worker count. Like Engine.Run, Run mutates tasks and
// member clusters, so each Run needs freshly built members and a
// fresh trace (see BatchSpec.SetupFederation).
type Federation struct {
	members   []Member
	route     RoutePolicy
	spill     SpilloverPolicy
	delay     Duration
	observers []Observer
	// src is the streaming trace attached by
	// WithFederationTraceSource, drained by a RunBatch replay.
	src TraceSource
	// Report-collection state: collectMk is the set factory from
	// WithFederationCollectors, realized into one collector set per
	// member plus an aggregate set (demuxed from the federation
	// observers) when the run starts — so the metas see the final
	// route policy regardless of option order, and repeated options
	// simply replace the factory.
	collectMk        func() []Collector
	aggCollectors    []Collector
	memberCollectors [][]Collector
	lastRes          *FederationResult
}

// FederationOption configures a Federation at construction.
type FederationOption func(*Federation)

// WithRoute selects the admission route policy (default:
// RouteLeastLoaded).
func WithRoute(p RoutePolicy) FederationOption {
	return func(f *Federation) { f.route = p }
}

// WithSpillover selects the spillover policy; nil disables spillover,
// so evicted tasks requeue on their own member. The default migrates
// capacity-loss victims to the sibling member with the most free GPUs
// that fits them, keeping them local otherwise.
func WithSpillover(p SpilloverPolicy) FederationOption {
	return func(f *Federation) { f.spill = p }
}

// WithMigrationDelay sets the simulated lag between a spillover
// decision and the task's arrival at its new member (default: one
// minute).
func WithMigrationDelay(d Duration) FederationOption {
	return func(f *Federation) { f.delay = d }
}

// WithFederationObserver registers observers for the federation event
// stream: every member event tagged with its member name, plus
// TaskMigrated and ClusterSaturated, renumbered by one shared
// sequence.
func WithFederationObserver(obs ...Observer) FederationOption {
	return func(f *Federation) { f.observers = append(f.observers, obs...) }
}

// WithFederationCollectors attaches report collection to the
// federation: make builds one fresh collector set per member plus
// one aggregate set over the whole member-tagged stream (nil uses
// DefaultCollectors). A RunBatch spec built with it carries the
// merged per-member + aggregate FederationReport in
// BatchResult.FedReport.
func WithFederationCollectors(mk func() []Collector) FederationOption {
	return func(f *Federation) {
		if mk == nil {
			mk = DefaultCollectors
		}
		f.collectMk = mk
	}
}

// WithFederationTraceSource attaches a streaming trace for replay by
// RunBatch: the spec's SetupFederation returns a nil task slice, and
// arrivals are pulled just ahead of the shared clock and routed to
// members exactly as Run routes a preloaded trace, so federated replay
// stays constant-memory on the ingestion side. The source must yield
// tasks in non-decreasing submission order; it is closed when the
// replay ends.
func WithFederationTraceSource(src TraceSource) FederationOption {
	return func(f *Federation) { f.src = src }
}

// NewFederation builds a federation over the members, applying
// options in order. It panics on an empty member list, a nil member
// engine, or duplicate or empty member names — configuration bugs
// that would silently corrupt routing.
func NewFederation(members []Member, opts ...FederationOption) *Federation {
	if len(members) == 0 {
		panic("gfs: NewFederation needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name == "" {
			panic("gfs: federation member with empty name")
		}
		if seen[m.Name] {
			panic(fmt.Sprintf("gfs: duplicate federation member %q", m.Name))
		}
		if m.Engine == nil {
			panic(fmt.Sprintf("gfs: federation member %q has no engine", m.Name))
		}
		seen[m.Name] = true
	}
	f := &Federation{
		members: append([]Member(nil), members...),
		route:   RouteLeastLoaded(),
		spill:   sched.SpillLeastLoaded{},
		delay:   Minute,
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// fedDemux fans the tagged stream out to the aggregate collector set
// and, by member name, to each member's set. Holding the sets, not the
// Federation, lets Engine.run's solo Federation stay on the stack.
type fedDemux struct {
	agg     []Collector
	members [][]Collector
	index   map[string]int
}

// OnEvent implements Observer.
func (d *fedDemux) OnEvent(e Event) {
	for _, c := range d.agg {
		c.OnEvent(e)
	}
	if i, ok := d.index[e.Member]; ok {
		for _, c := range d.members[i] {
			c.OnEvent(e)
		}
	}
}

// realizeCollectors builds the configured collector sets at run
// start: per-member and aggregate sets begun against pre-run metas,
// with one demux joined to the federation observers. It runs at most
// once; without a configured factory it is a no-op.
func (f *Federation) realizeCollectors() {
	if f.collectMk == nil || f.aggCollectors != nil {
		return
	}
	f.attachCollectors(f.collectMk)
}

// attachCollectors is realizeCollectors' worker: it assumes no sets
// are attached yet.
func (f *Federation) attachCollectors(mk func() []Collector) {
	agg := RunMeta{Scheduler: "federation(" + f.route.Name() + ")"}
	pools := map[string]float64{}
	index := map[string]int{}
	f.memberCollectors = nil
	for i, m := range f.members {
		meta := m.Engine.runMeta()
		agg.TotalGPUs += meta.TotalGPUs
		for _, p := range meta.Pools {
			pools[p.Model] += p.GPUs
		}
		cs := mk()
		for _, c := range cs {
			c.Begin(meta)
		}
		f.memberCollectors = append(f.memberCollectors, cs)
		index[m.Name] = i
	}
	var models []string
	for m := range pools {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		agg.Pools = append(agg.Pools, PoolInfo{Model: m, GPUs: pools[m]})
	}
	f.aggCollectors = mk()
	for _, c := range f.aggCollectors {
		c.Begin(agg)
	}
	f.observers = append(f.observers, &fedDemux{agg: f.aggCollectors, members: f.memberCollectors, index: index})
}

// report assembles the merged FederationReport from the collector
// sets attached by WithFederationCollectors, after the run; nil
// without collectors.
func (f *Federation) report() *FederationReport {
	if f.aggCollectors == nil {
		return nil
	}
	out := &FederationReport{Aggregate: &Report{Scheduler: "federation(" + f.route.Name() + ")"}}
	for _, c := range f.aggCollectors {
		c.Finish(out.Aggregate)
	}
	for i, m := range f.members {
		rep := &Report{}
		for _, c := range f.memberCollectors[i] {
			c.Finish(rep)
		}
		out.Members = append(out.Members, MemberReport{Name: m.Name, Report: rep})
	}
	if f.lastRes != nil {
		out.Migrations = f.lastRes.Migrations
		out.Saturations = f.lastRes.Saturations
	}
	return out
}

// Run executes the federated simulation over the trace and returns
// per-member and aggregate metrics. Tasks and member clusters are
// mutated in place, so each Run needs a fresh federation and trace.
// It panics on a bad configuration, the only error a never-cancelled
// preloaded run can hit.
func (f *Federation) Run(tasks []*Task) *FederationResult {
	res, err := f.run(context.Background(), tasks)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// run is the execution path behind Run and RunBatch. Only
// the federation's source is replayed, so a member engine's own source
// refuses the run (and is closed).
func (f *Federation) run(ctx context.Context, tasks []*Task) (*FederationResult, error) {
	var refused error
	for _, m := range f.members {
		if m.Engine.src != nil {
			m.Engine.src.Close()
			refused = fmt.Errorf("gfs: federation member %q has its own trace source (attach it with WithFederationTraceSource)", m.Name)
		}
	}
	return f.execute(ctx, tasks, refused)
}

// execute is the one body behind every run, an Engine's included (as
// a federation of one); a cancelled ctx, which only RunBatch passes,
// stops it within one simulated instant. An attached source is
// replayed and closed when the run ends, however it ends, and a task
// slice beside it is ambiguous, so the run is refused — as it is
// when refused is non-nil.
func (f *Federation) execute(ctx context.Context, tasks []*Task, refused error) (*FederationResult, error) {
	if f.src != nil {
		defer f.src.Close()
		if tasks != nil {
			refused = errors.New("gfs: run has both a trace source and a task slice")
		}
	}
	if refused != nil {
		return nil, refused
	}
	f.realizeCollectors()
	res, err := sched.RunFederationContext(ctx, f.fedConfig(), tasks, f.src)
	if err != nil {
		return nil, err
	}
	f.lastRes = res
	return res, nil
}

// fedConfig lowers the federation's members and policies onto the
// simulator core's configuration. Only routing reads prices and
// forecasts, so a federation of one builds neither.
func (f *Federation) fedConfig() sched.FedConfig {
	cfg := sched.FedConfig{
		Route:          f.route,
		Spill:          f.spill,
		MigrationDelay: f.delay,
		Observers:      f.observers,
		Members:        make([]sched.FedMember, len(f.members)),
	}
	for i, m := range f.members {
		fm := &cfg.Members[i]
		fm.Name, fm.Cfg = m.Name, m.Engine.cfg
		if len(f.members) == 1 {
			continue
		}
		fm.SpotPrice = m.spotPrice()
		if m.Profile != nil {
			p := *m.Profile
			fm.Reclaim = p.Intensity
		}
	}
	return cfg
}
