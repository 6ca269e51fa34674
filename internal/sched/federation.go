package sched

import (
	"context"
	"fmt"
	"math"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// This file implements the federated simulation loop: several member
// simulators (one cluster + scheduler + quota + scenario each)
// advance in lockstep on a shared clock, a RoutePolicy admits each
// arriving task to one member, and a SpilloverPolicy migrates
// capacity-loss victims to sibling members after a migration delay.
// Everything is deterministic: members are visited in index order,
// ties on the shared clock resolve federation events before member
// events, and no map iteration touches the hot path — so a federated
// run is byte-for-byte reproducible at any RunBatch worker count.

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
	sim     *Simulator
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

// FedConfig configures a federated simulation run.
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
	// Routed counts tasks the route policy admitted here.
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

// Federation-level queue events: an arriving task rides as a bare
// *task.Task (allocation-free boxing, like the member simulators'
// arrivals); fedMigration is a spilled task reaching its new member
// after the migration delay.
type fedMigration struct {
	tk       *task.Task
	from, to int
	cause    EvictCause
}

// fedSim drives the member simulators on a shared clock.
type fedSim struct {
	cfg     FedConfig
	delay   simclock.Duration
	members []*Simulator
	states  []*MemberState
	queue   simclock.Queue
	now     simclock.Time
	seq     uint64
	hasObs  bool

	routed, migIn, migOut []int
	migrations            int
	saturations           int
	// satLast dedupes ClusterSaturated per member and timestamp
	// (initialized to -1, before any simulated instant).
	satLast []simclock.Time
	// feed streams arrivals in just ahead of the shared clock; it is
	// dry from the start when the queue was preloaded instead.
	feed replayFeed
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

// newFedSim builds the shared-clock driver over the configured
// members; preloaded and streamed runs differ only in how arrivals
// reach its queue.
func newFedSim(cfg FedConfig) (*fedSim, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("sched: federation needs at least one member")
	}
	if cfg.Route == nil {
		cfg.Route = RouteLeastLoaded{}
	}
	f := &fedSim{
		cfg:     cfg,
		delay:   cfg.MigrationDelay,
		routed:  make([]int, len(cfg.Members)),
		migIn:   make([]int, len(cfg.Members)),
		migOut:  make([]int, len(cfg.Members)),
		satLast: make([]simclock.Time, len(cfg.Members)),
		hasObs:  len(cfg.Observers) > 0,
	}
	if f.delay <= 0 {
		f.delay = simclock.Minute
	}
	for i := range f.satLast {
		f.satLast[i] = -1
	}
	for i := range cfg.Members {
		i := i
		m := &cfg.Members[i]
		mcfg := m.Cfg
		if f.hasObs {
			mcfg.Observers = append(append([]Observer(nil), mcfg.Observers...), fedTap{f: f, member: m.Name})
		}
		if cfg.Spill != nil {
			mcfg.EvictionInterceptor = func(tk *task.Task, cause EvictCause) bool {
				return f.intercept(i, tk, cause)
			}
		}
		sim := NewSimulator(mcfg, nil)
		f.members = append(f.members, sim)
		f.states = append(f.states, &MemberState{
			Name:      m.Name,
			SpotPrice: m.SpotPrice,
			Reclaim:   m.Reclaim,
			cluster:   mcfg.Cluster,
			sim:       sim,
		})
	}
	return f, nil
}

// loop advances the shared clock: at each instant the feed's due
// arrivals join the federation queue (front class, like preloaded
// ones), federation events (routing, migration delivery) resolve, then
// every member with events at that instant steps, in member order.
func (f *fedSim) loop(ctx context.Context) error {
	arrive := func(tk *task.Task) { f.queue.PushFront(tk.Submit, tk) }
	for done := ctx.Done(); !stopped(done); {
		if err := f.feed.drain(f.nextTime, arrive); err != nil {
			return err
		}
		t, ok := f.nextTime()
		if !ok {
			return nil
		}
		f.now = t
		for {
			ev, ok := f.queue.Peek()
			if !ok || ev.At != t {
				break
			}
			ev, _ = f.queue.Pop()
			switch e := ev.Value.(type) {
			case *task.Task:
				f.route(e)
			case fedMigration:
				f.deliver(e)
			}
		}
		for _, m := range f.members {
			for {
				mt, ok := m.PeekTime()
				if !ok || mt != t {
					break
				}
				m.Step()
			}
		}
	}
	return ctx.Err()
}

// nextTime returns the earliest pending timestamp across the
// federation queue and every member, or false when all have run dry.
func (f *fedSim) nextTime() (simclock.Time, bool) {
	var best simclock.Time
	found := false
	if ev, ok := f.queue.Peek(); ok {
		best, found = ev.At, true
	}
	for _, m := range f.members {
		if mt, ok := m.PeekTime(); ok && (!found || mt < best) {
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
	if to < 0 || to >= len(f.members) {
		to = 0
	}
	if f.states[to].FreeGPUs() < tk.TotalGPUs() {
		f.saturated(to)
	}
	f.routed[to]++
	f.members[to].Inject(tk, f.now)
}

// intercept is the per-member eviction hook: it asks the spillover
// policy where the victim goes and, when a sibling takes it,
// schedules the migration and claims the task from the member.
func (f *fedSim) intercept(from int, tk *task.Task, cause EvictCause) bool {
	to := f.cfg.Spill.Spill(&SpillContext{
		Now: f.members[from].Now(), Task: tk, Cause: cause,
		From: from, Members: f.states,
	})
	if to < 0 || to == from || to >= len(f.members) {
		return false
	}
	f.saturated(from)
	f.queue.Push(f.members[from].Now().Add(f.delay), fedMigration{tk: tk, from: from, to: to, cause: cause})
	return true
}

// deliver lands a migrated task on its new member, emitting
// TaskMigrated on the federation stream.
func (f *fedSim) deliver(e fedMigration) {
	f.migrations++
	f.migOut[e.from]++
	f.migIn[e.to]++
	if f.hasObs {
		f.emitFed(Event{
			Kind: TaskMigrated, Task: e.tk, Cause: e.cause,
			Member: f.cfg.Members[e.from].Name, Target: f.cfg.Members[e.to].Name,
		})
	}
	f.members[e.to].Inject(e.tk, f.now)
}

// saturated records (and, once per member and timestamp, emits) a
// ClusterSaturated event for member i.
func (f *fedSim) saturated(i int) {
	at := f.now
	if f.satLast[i] == at {
		return
	}
	f.satLast[i] = at
	f.saturations++
	if f.hasObs {
		f.emitFed(Event{Kind: ClusterSaturated, Member: f.cfg.Members[i].Name})
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
	out := &FedResult{}
	for i, m := range f.members {
		r := m.Finish()
		mr := MemberResult{
			Name:        f.cfg.Members[i].Name,
			Result:      r,
			Routed:      f.routed[i],
			MigratedIn:  f.migIn[i],
			MigratedOut: f.migOut[i],
		}
		for _, tk := range r.Tasks {
			if tk.State == task.Finished {
				mr.GoodputGPUSeconds += tk.TotalGPUs() * float64(tk.Duration)
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
