package sched

import (
	"context"
	"fmt"
	"math"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// This file implements the module's one run loop: member simulators
// (one cluster + scheduler + quota + scenario each) advance in
// lockstep on a shared clock, a RoutePolicy admits each arriving task
// to one member, and a SpilloverPolicy migrates capacity-loss victims
// to sibling members after a migration delay. A plain run is a
// federation of one. Everything is deterministic: members are visited
// in index order, ties on the shared clock resolve federation events
// before member events, and no map iteration touches the hot path — so
// a run is byte-for-byte reproducible at any RunBatch worker count.

// MemberState is the per-member view route and spillover policies
// decide over: live capacity, queue depth, spot pricing and an
// optional reclamation forecast.
type MemberState struct {
	// Name is the member's unique name within the federation.
	Name string
	// SpotPrice is the effective price of the member's spot capacity
	// in $/GPU-hour, used by price-aware routing.
	SpotPrice float64
	// Reclaim forecasts the expected fraction of spot capacity
	// reclaimed around a time (a DiurnalProfile intensity, say); nil
	// means no reclamation is expected.
	Reclaim func(simclock.Time) float64

	cluster *cluster.Cluster
	sim     *simulator
}

// FreeGPUs returns the member's currently idle schedulable capacity.
func (m *MemberState) FreeGPUs() float64 { return m.cluster.IdleGPUs("") }

// TotalGPUs returns the member's schedulable capacity (down nodes
// excluded).
func (m *MemberState) TotalGPUs() float64 { return m.cluster.TotalGPUs("") }

// ExpectedReclaim returns the member's forecast reclamation fraction
// at time at (zero without a forecast).
func (m *MemberState) ExpectedReclaim(at simclock.Time) float64 {
	if m.Reclaim == nil {
		return 0
	}
	return m.Reclaim(at)
}

// RouteContext is the decision input handed to a RoutePolicy for one
// arriving task.
type RouteContext struct {
	// Now is the task's arrival time on the shared clock.
	Now simclock.Time
	// Task is the arriving task.
	Task *task.Task
	// Members lists every member's live state, in federation order.
	Members []*MemberState
}

// RoutePolicy admits each arriving task to one federation member.
// Implementations must be deterministic: the same context sequence
// must yield the same member sequence.
type RoutePolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Route returns the index of the member that admits ctx.Task.
	// Out-of-range indices fall back to member 0.
	Route(ctx *RouteContext) int
}

// SpillContext is the decision input handed to a SpilloverPolicy for
// one capacity-loss eviction.
type SpillContext struct {
	// Now is the eviction time on the shared clock.
	Now simclock.Time
	// Task is the evicted task.
	Task *task.Task
	// Cause is the eviction cause (node failure, drain or spot
	// reclamation; scheduler preemptions never spill).
	Cause EvictCause
	// From is the index of the member that lost the task.
	From int
	// Members lists every member's live state, in federation order.
	Members []*MemberState
}

// SpilloverPolicy decides whether a capacity-loss victim migrates to
// a sibling member. Implementations must be deterministic.
type SpilloverPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Spill returns the index of the member the task migrates to, or
	// a negative index (or From itself) to requeue it locally.
	Spill(ctx *SpillContext) int
}

// RouteLeastLoaded routes every task to the member with the highest
// free fraction of schedulable capacity, breaking ties toward the
// lower member index.
type RouteLeastLoaded struct{}

// Name implements RoutePolicy.
func (RouteLeastLoaded) Name() string { return "least-loaded" }

// Route implements RoutePolicy.
func (RouteLeastLoaded) Route(ctx *RouteContext) int {
	best, bestScore := 0, math.Inf(-1)
	for i, m := range ctx.Members {
		score := 0.0
		if total := m.TotalGPUs(); total > 0 {
			score = m.FreeGPUs() / total
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// RouteCheapestSpot routes spot tasks to the cheapest member (by
// MemberState.SpotPrice) whose free capacity fits the task right now,
// falling back to the cheapest member overall when nothing fits. HP
// tasks route least-loaded: they are not price-shopped.
type RouteCheapestSpot struct{}

// Name implements RoutePolicy.
func (RouteCheapestSpot) Name() string { return "cheapest-spot" }

// Route implements RoutePolicy.
func (RouteCheapestSpot) Route(ctx *RouteContext) int {
	if ctx.Task.Type != task.Spot {
		return RouteLeastLoaded{}.Route(ctx)
	}
	need := ctx.Task.TotalGPUs()
	best := -1
	for i, m := range ctx.Members {
		if m.FreeGPUs() < need {
			continue
		}
		if best < 0 || m.SpotPrice < ctx.Members[best].SpotPrice {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	// Nothing fits; queue on the cheapest member regardless.
	for i, m := range ctx.Members {
		if best < 0 || m.SpotPrice < ctx.Members[best].SpotPrice {
			best = i
		}
	}
	return best
}

// RouteForecastAware scores members by free capacity discounted by
// their expected spot reclamation over the task's remaining runtime
// (sampled at the start, midpoint and end of the window), and routes
// to the highest score. HP tasks, which reclamation cannot touch, are
// scored on free capacity alone.
type RouteForecastAware struct{}

// Name implements RoutePolicy.
func (RouteForecastAware) Name() string { return "forecast-aware" }

// Route implements RoutePolicy.
func (RouteForecastAware) Route(ctx *RouteContext) int {
	best, bestScore := 0, math.Inf(-1)
	for i, m := range ctx.Members {
		score := m.FreeGPUs()
		if ctx.Task.Type == task.Spot {
			dur := ctx.Task.Remaining()
			risk := (m.ExpectedReclaim(ctx.Now) +
				m.ExpectedReclaim(ctx.Now.Add(dur/2)) +
				m.ExpectedReclaim(ctx.Now.Add(dur))) / 3
			score *= 1 - risk
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// RouteRoundRobin deals tasks to members in rotation, ignoring their
// state. It is the static split that models isolated clusters sharing
// nothing but a workload source — the experiment baseline federation
// routing is measured against.
type RouteRoundRobin struct {
	next int
}

// Name implements RoutePolicy.
func (*RouteRoundRobin) Name() string { return "round-robin" }

// Route implements RoutePolicy.
func (r *RouteRoundRobin) Route(ctx *RouteContext) int {
	i := r.next % len(ctx.Members)
	r.next++
	return i
}

// SpillLeastLoaded migrates a capacity-loss victim to the sibling
// member with the most free GPUs that can fit it right now, keeping
// the task local when no sibling can.
type SpillLeastLoaded struct{}

// Name implements SpilloverPolicy.
func (SpillLeastLoaded) Name() string { return "least-loaded" }

// Spill implements SpilloverPolicy.
func (SpillLeastLoaded) Spill(ctx *SpillContext) int {
	need := ctx.Task.TotalGPUs()
	best := -1
	var bestFree float64
	for i, m := range ctx.Members {
		if i == ctx.From {
			continue
		}
		free := m.FreeGPUs()
		if free < need {
			continue
		}
		if best < 0 || free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// FedMember configures one federation member: a full simulation
// configuration plus the pricing and forecast signals routing
// policies read.
type FedMember struct {
	// Name is the member's unique name.
	Name string
	// Cfg is the member's complete simulation configuration
	// (cluster, scheduler, quota, scenario, observers).
	Cfg SimConfig
	// SpotPrice is the member's effective spot price in $/GPU-hour.
	SpotPrice float64
	// Reclaim optionally forecasts the member's expected reclamation
	// fraction at a time (see MemberState.Reclaim).
	Reclaim func(simclock.Time) float64
}

// FedConfig configures a federated simulation run. A one-member
// config is a plain run: routing and spillover need a sibling, so
// neither policy is consulted and no ClusterSaturated is raised.
type FedConfig struct {
	// Members lists the federation members; routing and spillover
	// indices refer to this order.
	Members []FedMember
	// Route admits each arriving task to one member (default:
	// RouteLeastLoaded).
	Route RoutePolicy
	// Spill migrates capacity-loss victims across members; nil
	// disables spillover (evicted tasks requeue on their member).
	Spill SpilloverPolicy
	// MigrationDelay is the simulated lag between a spillover
	// decision and the task's arrival at its new member (checkpoint
	// transfer, re-containerization); ≤ 0 defaults to one minute.
	MigrationDelay simclock.Duration
	// Observers receive the federation event stream: every member
	// event tagged with its member name, plus TaskMigrated and
	// ClusterSaturated, all renumbered by one shared sequence.
	Observers []Observer
}

// MemberResult is one member's share of a federated run.
type MemberResult struct {
	// Name is the member's name.
	Name string
	// Result holds the member's full simulation metrics over the
	// tasks that ended their journey on this member.
	Result *Result
	// Routed counts tasks admitted here on arrival: every task, for
	// a solo member.
	Routed int
	// MigratedIn and MigratedOut count spillover tasks received from
	// and handed to sibling members.
	MigratedIn, MigratedOut int
	// GoodputGPUSeconds is the useful work completed on this member:
	// Σ GPUs × duration over its finished tasks.
	GoodputGPUSeconds float64
}

// FedResult aggregates a federated run.
type FedResult struct {
	// Members holds per-member results in federation order.
	Members []MemberResult
	// Migrations counts delivered spillover migrations.
	Migrations int
	// Saturations counts ClusterSaturated occurrences (at most one
	// per member per timestamp).
	Saturations int
	// GoodputGPUSeconds, WastedGPUSeconds and Unfinished aggregate
	// the member totals.
	GoodputGPUSeconds float64
	WastedGPUSeconds  float64
	Unfinished        int
}

// Member returns the named member's result, or nil.
func (r *FedResult) Member(name string) *MemberResult {
	for i := range r.Members {
		if r.Members[i].Name == name {
			return &r.Members[i]
		}
	}
	return nil
}

// fedMigration is the federation queue's one event: a spilled task
// reaching its new member after the migration delay.
type fedMigration struct {
	tk       *task.Task
	from, to int
	cause    EvictCause
}

// memberBooks is one member's state: the policy view (whose sim is
// the member's simulator), its MemberResult tallies, and satLast, the
// instant it was last flagged ClusterSaturated (-1: never).
type memberBooks struct {
	MemberState
	routed, migIn, migOut int
	satLast               simclock.Time
}

// fedSim drives the member simulators on a shared clock.
type fedSim struct {
	cfg    FedConfig
	delay  simclock.Duration
	books  []memberBooks
	queue  simclock.Queue
	now    simclock.Time
	seq    uint64
	hasObs bool
	// states points into books for the route and spillover policies,
	// which a solo member never consults.
	states      []*MemberState
	migrations  int
	saturations int
	// feed walks the trace just ahead of the shared clock: a solo
	// member's own, or the federation's, whose arrivals it routes.
	feed *replayFeed
}

// fedTap forwards one member's event stream to the federation
// observers, tagged with the member name and renumbered by the shared
// federation sequence.
type fedTap struct {
	f      *fedSim
	member string
}

// OnEvent implements Observer.
func (t fedTap) OnEvent(e Event) {
	e.Member = t.member
	e.Seq = t.f.seq
	t.f.seq++
	for _, o := range t.f.cfg.Observers {
		o.OnEvent(e)
	}
}

// RunFederationContext executes a simulation, deterministic in
// (config, trace). The trace is tasks, or src when it is non-nil (a
// run given both is refused). One replay feed walks it just ahead of
// the shared clock — a solo member's own, or the federation's, which
// routes each arrival — so a streamed trace runs event for event like
// its preload while decoding stays constant-memory. src must yield
// unique positive IDs in non-decreasing submission order; callers own
// and close it. Cancellation, a bad configuration and a failing source
// are the only errors.
func RunFederationContext(ctx context.Context, cfg FedConfig, tasks []*task.Task, src TaskSource) (*FedResult, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("sched: federation needs at least one member")
	}
	if src != nil && len(tasks) > 0 {
		return nil, fmt.Errorf("sched: run has both a trace source and a task slice")
	}
	f := newFedSim(cfg, tasks, src)
	if err := f.loop(ctx); err != nil {
		return nil, err
	}
	return f.finish(), nil
}

// newFedSim builds the shared-clock driver over the configured members
// with the trace's feed: a solo member's simulator walks it, else the
// federation does, routing each arrival.
func newFedSim(cfg FedConfig, tasks []*task.Task, src TaskSource) *fedSim {
	if cfg.Route == nil {
		cfg.Route = RouteLeastLoaded{}
	}
	f := &fedSim{
		cfg:    cfg,
		delay:  cfg.MigrationDelay,
		books:  make([]memberBooks, len(cfg.Members)),
		hasObs: len(cfg.Observers) > 0,
	}
	if f.delay <= 0 {
		f.delay = simclock.Minute
	}
	solo := len(cfg.Members) == 1
	for i := range cfg.Members {
		m, b := &cfg.Members[i], &f.books[i]
		mcfg := m.Cfg
		if f.hasObs {
			mcfg.Observers = append(append([]Observer(nil), mcfg.Observers...), fedTap{f: f, member: m.Name})
		}
		b.MemberState = MemberState{
			Name:      m.Name,
			SpotPrice: m.SpotPrice,
			Reclaim:   m.Reclaim,
			cluster:   mcfg.Cluster,
		}
		b.satLast = -1
		if solo {
			b.sim = newSimulator(mcfg, tasks, src)
			f.feed = &b.sim.feed
			continue
		}
		if cfg.Spill != nil {
			mcfg.evictionInterceptor = func(tk *task.Task, cause EvictCause) bool {
				return f.intercept(i, tk, cause)
			}
		}
		b.sim = newSimulator(mcfg, nil, nil)
		f.states = append(f.states, &b.MemberState)
	}
	if !solo {
		feed := newReplayFeed(tasks, src)
		f.feed = &feed
	}
	return f
}

// loop advances the shared clock: at each instant a larger
// federation routes the arrivals its feed has due, migrations land,
// then every member with events at that instant steps, in member
// order. It checks ctx first, so a cancelled run stops within one
// instant of the signal — gfsd's DELETE /v1/sessions/{id} — and a
// background context, whose Done channel is nil, pays the default. A
// failing source stops the run once the instant of its last good
// arrival is done.
func (f *fedSim) loop(ctx context.Context) error {
	for done := ctx.Done(); ; {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if f.feed.err != nil {
			return f.feed.err
		}
		t, ok := f.nextTime()
		if !ok {
			return nil
		}
		f.now = t
		for len(f.books) > 1 && f.feed.next != nil && f.feed.next.Submit == t {
			f.route(f.feed.take())
		}
		for {
			ev, ok := f.queue.Peek()
			if !ok || ev.At != t {
				break
			}
			ev, _ = f.queue.Pop()
			f.deliver(ev.Value.(fedMigration))
		}
		for i := range f.books {
			m := f.books[i].sim
			for {
				mt, ok := m.peekTime()
				if !ok || mt != t {
					break
				}
				m.step()
			}
		}
	}
}

// nextTime returns the earliest pending timestamp across the feed,
// the federation queue and every member, or false when all have run
// dry.
func (f *fedSim) nextTime() (simclock.Time, bool) {
	var best simclock.Time
	found := false
	if tk := f.feed.next; tk != nil {
		best, found = tk.Submit, true
	}
	if ev, ok := f.queue.Peek(); ok && (!found || ev.At < best) {
		best, found = ev.At, true
	}
	for i := range f.books {
		if mt, ok := f.books[i].sim.peekTime(); ok && (!found || mt < best) {
			best, found = mt, true
		}
	}
	return best, found
}

// route admits one arriving task to the member the policy picks,
// flagging saturation when the task exceeds that member's free
// capacity.
func (f *fedSim) route(tk *task.Task) {
	to := f.cfg.Route.Route(&RouteContext{Now: f.now, Task: tk, Members: f.states})
	if to < 0 || to >= len(f.books) {
		to = 0
	}
	b := &f.books[to]
	if b.FreeGPUs() < tk.TotalGPUs() {
		f.saturated(to)
	}
	b.routed++
	b.sim.inject(tk, f.now)
}

// intercept is the per-member eviction hook: it asks the spillover
// policy where the victim goes and, when a sibling takes it,
// schedules the migration and claims the task from the member.
func (f *fedSim) intercept(from int, tk *task.Task, cause EvictCause) bool {
	now := f.books[from].sim.now
	to := f.cfg.Spill.Spill(&SpillContext{
		Now: now, Task: tk, Cause: cause,
		From: from, Members: f.states,
	})
	if to < 0 || to == from || to >= len(f.books) {
		return false
	}
	f.saturated(from)
	f.queue.Push(now.Add(f.delay), fedMigration{tk: tk, from: from, to: to, cause: cause})
	return true
}

// deliver lands a migrated task on its new member, emitting
// TaskMigrated on the federation stream.
func (f *fedSim) deliver(e fedMigration) {
	f.migrations++
	f.books[e.from].migOut++
	f.books[e.to].migIn++
	if f.hasObs {
		f.emitFed(Event{
			Kind: TaskMigrated, Task: e.tk, Cause: e.cause,
			Member: f.books[e.from].Name, Target: f.books[e.to].Name,
		})
	}
	f.books[e.to].sim.inject(e.tk, f.now)
}

// saturated records (and, once per member and timestamp, emits) a
// ClusterSaturated event for member i.
func (f *fedSim) saturated(i int) {
	b := &f.books[i]
	if b.satLast == f.now {
		return
	}
	b.satLast = f.now
	f.saturations++
	if f.hasObs {
		f.emitFed(Event{Kind: ClusterSaturated, Member: b.Name})
	}
}

// emitFed delivers one federation-level event to the federation
// observers, stamped with the shared clock and sequence.
func (f *fedSim) emitFed(ev Event) {
	ev.At = f.now
	ev.Seq = f.seq
	f.seq++
	for _, o := range f.cfg.Observers {
		o.OnEvent(ev)
	}
}

// finish collects per-member and aggregate metrics.
func (f *fedSim) finish() *FedResult {
	out := &FedResult{Members: make([]MemberResult, 0, len(f.books))}
	for i := range f.books {
		b := &f.books[i]
		r := b.sim.finish()
		if len(f.books) == 1 {
			b.routed = len(r.Tasks)
		}
		mr := MemberResult{
			Name:        b.Name,
			Result:      r,
			Routed:      b.routed,
			MigratedIn:  b.migIn,
			MigratedOut: b.migOut,
		}
		for _, tk := range r.Tasks {
			if tk.State == task.Finished {
				mr.GoodputGPUSeconds += float64(tk.TotalGPUs() * float64(tk.Duration))
			}
		}
		out.GoodputGPUSeconds += mr.GoodputGPUSeconds
		out.WastedGPUSeconds += r.WastedGPUSeconds
		out.Unfinished += r.UnfinishedHP + r.UnfinishedSpot
		out.Members = append(out.Members, mr)
	}
	out.Migrations = f.migrations
	out.Saturations = f.saturations
	return out
}

// String summarizes the federated run in one line per member.
func (r *FedResult) String() string {
	s := fmt.Sprintf("federation: goodput %.0f GPU-s, %d migrations, %d saturations, %d unfinished\n",
		r.GoodputGPUSeconds, r.Migrations, r.Saturations, r.Unfinished)
	for _, m := range r.Members {
		s += fmt.Sprintf("  %-10s routed %4d  in %3d  out %3d  goodput %.0f GPU-s\n",
			m.Name, m.Routed, m.MigratedIn, m.MigratedOut, m.GoodputGPUSeconds)
	}
	return s
}
