package sched

import (
	"math"
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
	"github.com/sjtucitlab/gfs/internal/task"
)

// SimConfig configures one simulation run.
type SimConfig struct {
	Cluster   *cluster.Cluster
	Scheduler Scheduler
	// Quota is the spot quota policy; nil means unlimited.
	Quota QuotaPolicy
	// InitialOrgDemand seeds the per-organization demand history
	// fed to the quota policy, avoiding a forecast cold start. Each
	// series is hourly demand ending at the simulation epoch.
	InitialOrgDemand map[string][]float64
	// Observers receive the typed event stream. With none
	// registered the simulator pays no emission cost.
	Observers []Observer
	// Scenario lists timed cluster mutations (failure-domain outages
	// and restores, spot reclamation bursts) injected into the event
	// queue mid-run. Actions sharing a timestamp apply in order.
	Scenario []ScenarioAction
	// Autoscaler, when non-nil, is consulted at every quota tick
	// (after the demand sample and quota update): it may provision
	// new pools — delivered after a pre-warm lead through the same
	// event path scenario actions use — and retire nodes, which drain
	// rather than strand (cordon + spot eviction, capacity leaves
	// when the last HP pod completes).
	Autoscaler Autoscaler
	// EvictionInterceptor, when non-nil, is consulted after a
	// capacity-loss eviction (node failure, drain, spot reclamation —
	// never scheduler preemption) before the victim is requeued
	// locally. Returning true claims the task: the simulator forgets
	// it and the caller becomes responsible for its future, typically
	// by injecting it into a sibling cluster (see RunFederationContext).
	EvictionInterceptor func(tk *task.Task, cause EvictCause) bool

	// limits replaces paperLimits in tests; nil outside them.
	limits *limits
}

// limits are the simulator's fixed run settings.
type limits struct {
	// grace is the preemption grace period.
	grace simclock.Duration
	// maxFailures bounds wasted work scanning a long pending queue:
	// once this many placement attempts fail in one pass, the rest
	// wait for the next event.
	maxFailures int
	// idleTimeout stops the simulation when nothing has progressed
	// for this long, so permanently unplaceable tasks cannot hang
	// the run.
	idleTimeout simclock.Duration
}

// paperLimits are the production settings: a 30 s grace, 25 failures
// per pass and a 48 h idle timeout.
var paperLimits = limits{grace: 30 * simclock.Second, maxFailures: 25, idleTimeout: 48 * simclock.Hour}

// The quota tick runs every quotaInterval (Table 4: 300 s), and the
// eviction rate and queueing delay fed to the quota policy look back
// over quotaWindow.
const (
	quotaInterval = 300 * simclock.Second
	quotaWindow   = simclock.Hour
)

// DefaultSimConfig runs scheduler s on cluster cl with no quota,
// observers or scenario. The preemption grace (30 s), the failed
// placements per pass (25) and the idle timeout (48 h) are fixed.
func DefaultSimConfig(cl *cluster.Cluster, s Scheduler) SimConfig {
	return SimConfig{Cluster: cl, Scheduler: s}
}

// Result summarizes one simulation run.
type Result struct {
	SchedulerName string
	Tasks         []*task.Task
	HP, Spot      stats.TaskMetrics
	// AllocationRate is the time-averaged GPU allocation rate.
	AllocationRate float64
	// WastedGPUSeconds accumulates Eq. 17 waste over all
	// evictions.
	WastedGPUSeconds float64
	// UnfinishedHP and UnfinishedSpot count tasks never completed.
	UnfinishedHP, UnfinishedSpot int
	// End is the simulated time of the last event.
	End simclock.Time
	// FinalQuota is the spot quota at simulation end.
	FinalQuota float64
}

// RuntimeInflater is an optional scheduler extension that adds
// runtime overhead to a placement (lease switching in Chronus).
type RuntimeInflater interface {
	InflateRuntime(tk *task.Task) simclock.Duration
}

// Event payloads. Injected arrivals ride as a bare *task.Task (no
// wrapper, so pushing one allocates nothing); finishes as pooled
// *finishEvent records recycled after delivery; ticks as a zero-size
// marker whose boxing is allocation-free. A finish event carries the
// task's run count at start: every run that ends appends to tk.Runs,
// so a moved count marks the event stale.
type finishEvent struct {
	tk   *task.Task
	runs int
}

type tickEvent struct{}

type scenarioEvent struct{ action ScenarioAction }

// provisionEvent delivers one autoscaler-ordered pool after its
// pre-warm lead. It rides the normal event class, exactly like
// scenario actions, so arrivals at the same instant are handled first.
type provisionEvent struct{ pool cluster.Pool }

// Simulator is one cluster's discrete-event core. RunFederationContext
// is the one loop that steps it — a plain run is a federation of one —
// advancing every member in lockstep on a shared clock;
// PeekTime/Step/Inject/Finish are the calls it makes.
type Simulator struct {
	cfg    SimConfig
	limits limits
	queue  simclock.Queue
	// feed walks the trace, preloaded or streamed, one task ahead of
	// the clock; the queue holds only the events of a run in flight.
	feed  replayFeed
	state *State
	pend  pendingQueue
	now   simclock.Time

	spotQuota    float64
	gCount       int
	fCount       int
	waste        float64
	evWindow     *stats.EvictionWindow
	alloc        *stats.AllocationTracker
	orgDemand    map[string][]float64
	hourSamples  int
	lastHour     int
	lastProgress simclock.Time
	recentQueues []queueObs
	running      int

	// tasks is every task in injection order: the preloaded slice in
	// the caller's order or a stream in arrival order, then each Inject
	// (a migrant when it is delivered, once). Only OpReclaimSpot and
	// result read it.
	tasks []*task.Task

	// hasObs caches len(cfg.Observers) > 0 so the hot loop skips
	// event construction entirely when nobody listens.
	hasObs   bool
	eventSeq uint64
	// etaRep is the quota policy's EtaReporter view, cached at
	// construction so QuotaUpdated events can carry η without a type
	// assertion per tick.
	etaRep EtaReporter

	// tickOn tracks whether a quota tick is pending in the queue, and
	// quotaInit whether the initial quota update ran; both matter only
	// for federation members fed via Inject, whose first task can
	// arrive long after construction (or after the tick chain went
	// idle).
	tickOn    bool
	quotaInit bool
	// retiring holds autoscaler-retired nodes still hosting HP pods;
	// each leaves capacity (SetDown) when its last pod completes.
	retiring map[int]*cluster.Node
	// migrated marks tasks claimed by the interceptor, which no longer
	// count toward this simulator's demand or results but keep their
	// places in s.tasks and hpLive, so a task coming back is re-admitted
	// without a second entry. It is nil (and cost-free) until a task
	// migrates away.
	migrated map[int]bool

	// finishFree recycles finishEvent records: one is allocated per
	// concurrent running task at steady state, then reused for the
	// rest of the run.
	finishFree []*finishEvent

	// hpLive is the demand-sampling view: every arrived, unfinished HP
	// task, in arrival order. The arrival handler appends a task once
	// (a migrant coming back keeps its place) and each tick compacts
	// finished tasks away. Order matters — per-org demand accumulates
	// in iteration order, and floating-point addition is not
	// associative. Arrivals pop in time order, ties in s.tasks order:
	// that is s.tasks order for a Submit-sorted preload, a source stream
	// and every federation route or delivery. An unsorted preload
	// arrives in stable Submit order instead, so its sums may round
	// differently than a scan of s.tasks when HP requests are
	// fractional.
	hpLive []*task.Task
	// hpOrg holds each hpLive task's org slot, so the per-tick demand
	// accumulation indexes a flat array instead of hashing org strings.
	// Slots are assigned per distinct org name, the initial panel's
	// first: orgNames/hourAccum/hourTouched are parallel arrays,
	// orgSlots the name → slot index.
	hpOrg       []int
	orgSlots    map[string]int
	orgNames    []string
	hourAccum   []float64
	hourTouched []bool

	// passCtx is the scheduler-facing context, refilled per pass.
	passCtx Context
	// work counts what scheduling passes did; tests gate on it.
	work passWork
}

// passWork tallies scheduling-pass work: passes run, distinct shapes
// queued at pass start (summed), queue entries examined, Schedule
// calls and starts. The queue itself counts the buckets parked.
type passWork struct {
	passes, shapes, examined, calls, starts uint64
}

// newFinishEvent takes a finish record from the pool (or allocates
// one). Records return to the pool in handle, immediately after the
// queue delivers them.
func (s *Simulator) newFinishEvent(tk *task.Task) *finishEvent {
	if n := len(s.finishFree); n > 0 {
		e := s.finishFree[n-1]
		s.finishFree = s.finishFree[:n-1]
		e.tk, e.runs = tk, len(tk.Runs)
		return e
	}
	return &finishEvent{tk: tk, runs: len(tk.Runs)}
}

type queueObs struct {
	at  simclock.Time
	dur simclock.Duration
}

// NewSimulator builds a simulator over the trace without running it.
// Drive it with Step until it returns false (or interleave Step with
// Inject), then collect metrics with Finish.
func NewSimulator(cfg SimConfig, tasks []*task.Task) *Simulator {
	return newSimulator(cfg, tasks, nil)
}

// newSimulator builds a simulator whose feed walks the trace: tasks,
// or src when it is non-nil.
func newSimulator(cfg SimConfig, tasks []*task.Task, src TaskSource) *Simulator {
	s := &Simulator{
		cfg:       cfg,
		limits:    paperLimits,
		feed:      newReplayFeed(tasks, src),
		tasks:     tasks,
		pend:      pendingQueue{sched: cfg.Scheduler, byShape: make(map[taskShape]*shapeBucket)},
		state:     NewState(cfg.Cluster),
		spotQuota: math.Inf(1),
		evWindow:  stats.NewEvictionWindow(quotaWindow),
		alloc:     stats.NewAllocationTracker(cfg.Cluster.TotalGPUs("")),
		orgDemand: make(map[string][]float64),
		orgSlots:  make(map[string]int),
		lastHour:  -1,
	}
	initOrgs := make([]string, 0, len(cfg.InitialOrgDemand))
	for org := range cfg.InitialOrgDemand {
		initOrgs = append(initOrgs, org)
	}
	sort.Strings(initOrgs)
	for _, org := range initOrgs {
		s.orgDemand[org] = append([]float64(nil), cfg.InitialOrgDemand[org]...)
		s.orgSlot(org)
	}
	if cfg.limits != nil {
		s.limits = *cfg.limits
	}
	s.hasObs = len(cfg.Observers) > 0
	if er, ok := cfg.Quota.(EtaReporter); ok {
		s.etaRep = er
	}
	// An arrival from the feed is delivered before every queued event
	// at its instant (see pop). Injected arrivals use the queue's front
	// class, so a mutation at time t always applies after arrivals at
	// t, and an arrival Injected mid-run by a federation router
	// tie-breaks exactly like one from the feed.
	// Scenario actions join the same queue in the normal class.
	// Against finish events the tie-break goes the other way:
	// finishes are pushed mid-run with higher sequence numbers, so a
	// node failure at the exact instant a hosted task would complete
	// kills the task first (failure wins ties, as it would on real
	// hardware).
	actions := SortActions(append([]ScenarioAction(nil), cfg.Scenario...))
	for _, a := range actions {
		s.queue.Push(a.At, scenarioEvent{action: a})
	}
	if tk := s.feed.next; tk != nil {
		s.arm(tk.Submit)
	}
	return s
}

// arm readies the simulator for a first (or, after the tick chain went
// idle, a next) task arriving at time at: the initial quota is set
// before the first pass ever runs, and the quota tick chain restarts
// one interval on.
func (s *Simulator) arm(at simclock.Time) {
	if !s.quotaInit {
		s.now = at
		s.updateQuota()
		s.quotaInit = true
	}
	if !s.tickOn {
		s.queue.Push(at.Add(quotaInterval), tickEvent{})
		s.tickOn = true
	}
}

// PeekTime returns the timestamp of the next pending event, or false
// when the simulation has run dry. It is how a federated loop decides
// which member advances next.
func (s *Simulator) PeekTime() (simclock.Time, bool) {
	ev, ok := s.queue.Peek()
	if tk := s.feed.next; tk != nil && (!ok || tk.Submit <= ev.At) {
		return tk.Submit, true
	}
	return ev.At, ok
}

// pop removes the next event: the feed's arrival when it is due no
// later than the queue's head, else the head. Ties go to the feed, as
// they did when a preload was pushed into the queue at construction,
// with the lowest sequence numbers of all. A streamed arrival joins
// the books as it arrives; a preload is in them from the start.
func (s *Simulator) pop() (simclock.Event, bool) {
	if tk := s.feed.next; tk != nil {
		if ev, ok := s.queue.Peek(); !ok || tk.Submit <= ev.At {
			if s.feed.src != nil {
				s.tasks = append(s.tasks, tk)
			}
			s.feed.take()
			return simclock.Event{At: tk.Submit, Value: tk}, true
		}
	}
	return s.queue.Pop()
}

// Now returns the simulator's current time (the timestamp of the last
// processed event).
func (s *Simulator) Now() simclock.Time { return s.now }

// PendingTasks returns the number of tasks waiting in the scheduling
// queue.
func (s *Simulator) PendingTasks() int { return s.pend.n }

// Step processes the next timestamp bundle — every event sharing the
// earliest pending timestamp, followed by at most one scheduling pass
// — and reports whether any event was processed.
func (s *Simulator) Step() bool {
	ev, ok := s.pop()
	if !ok {
		return false
	}
	s.now = ev.At
	scheduleNeeded := s.handle(ev)
	// Drain events sharing this timestamp before scheduling.
	for {
		if at, ok := s.PeekTime(); !ok || at != s.now {
			break
		}
		ev, _ = s.pop()
		if s.handle(ev) {
			scheduleNeeded = true
		}
	}
	if scheduleNeeded {
		s.schedulePass()
	}
	return true
}

// Inject adds a task to the simulation mid-run, arriving at time at
// (which must not precede the simulator's current time). It is the
// entry point for federation routing and migration: tasks reach a
// member as the shared clock reaches each submission.
// Re-injecting a task that previously migrated away returns it to this
// simulator's books when it arrives.
func (s *Simulator) Inject(tk *task.Task, at simclock.Time) {
	if !s.migrated[tk.ID] {
		s.tasks = append(s.tasks, tk)
	}
	s.queue.PushFront(at, tk)
	s.arm(at)
}

// Finish closes the books — observing the final allocation sample —
// and returns the run's metrics. Call it exactly once, after Step
// returns false.
func (s *Simulator) Finish() *Result {
	s.sampleAlloc()
	return s.result()
}

// sampleAlloc observes the cluster's current allocation on the
// internal tracker and mirrors the observation onto the event spine
// (AllocSampled), so collectors see exactly the trajectory the
// tracker integrates.
func (s *Simulator) sampleAlloc() {
	used := s.state.Cluster.UsedGPUs("")
	s.alloc.Observe(s.now, used)
	if s.hasObs {
		s.emit(Event{Kind: AllocSampled, Used: used, Capacity: s.alloc.Capacity()})
	}
}

// refreshCapacity closes the tracker's integration window after a
// cluster-membership change and re-reads the schedulable capacity.
// Every caller follows up with sampleAlloc, so capacity changes and
// usage observations reach the spine as one uniform tick stream that
// collectors can integrate exactly like the internal tracker.
func (s *Simulator) refreshCapacity() {
	s.alloc.SetCapacity(s.now, s.state.Cluster.TotalGPUs(""))
}

// progressed is the one epilogue of every handler that changed what
// the cluster holds or offers: it re-reads capacity when membership
// moved, observes the allocation and restarts the idle clock. It
// returns true — a scheduling pass should follow.
func (s *Simulator) progressed(membership bool) bool {
	if membership {
		s.refreshCapacity()
	}
	s.sampleAlloc()
	s.lastProgress = s.now
	return true
}

// emit delivers one event to every observer, stamping time and
// sequence. Callers must guard with s.hasObs so unobserved runs pay
// nothing.
func (s *Simulator) emit(ev Event) {
	ev.At = s.now
	ev.Seq = s.eventSeq
	s.eventSeq++
	for _, o := range s.cfg.Observers {
		o.OnEvent(ev)
	}
}

// handle processes one event and reports whether a scheduling pass
// should follow.
func (s *Simulator) handle(ev simclock.Event) bool {
	switch e := ev.Value.(type) {
	case *task.Task: // arrival
		if s.migrated[e.ID] {
			// Back from a sibling: the task kept its places while away.
			delete(s.migrated, e.ID)
		} else if e.Type == task.HP {
			s.hpLive = append(s.hpLive, e)
			s.hpOrg = append(s.hpOrg, s.orgSlot(e.Org))
		}
		e.EnterQueue(s.now)
		s.pend.insert(e)
		s.lastProgress = s.now
		if s.hasObs {
			s.emit(Event{Kind: TaskArrived, Task: e})
		}
		return true
	case *finishEvent:
		tk, runs := e.tk, e.runs
		e.tk = nil
		s.finishFree = append(s.finishFree, e)
		if len(tk.Runs) != runs || tk.State != task.Running {
			return false // stale: the run was evicted
		}
		s.state.ReleaseAll(tk)
		tk.Finish(s.now)
		s.running--
		if tk.Type == task.Spot {
			s.gCount++
			s.evWindow.Record(s.now, false)
		}
		if len(s.retiring) > 0 {
			s.checkRetiring()
		}
		s.progressed(false)
		if s.hasObs {
			s.emit(Event{Kind: TaskFinished, Task: tk})
		}
		return true
	case scenarioEvent:
		return s.applyScenario(e.action)
	case provisionEvent:
		added := s.state.Cluster.AddPool(e.pool)
		if s.hasObs {
			for _, n := range added {
				s.emit(Event{Kind: NodeProvisioned, Node: n, Tier: n.Tier})
			}
		}
		return s.progressed(true)
	case tickEvent:
		s.recordDemand()
		s.updateQuota()
		s.autoscaleTick()
		// Keep ticking while there is anything left to drive.
		active := s.queue.Len() > 0 || s.feed.next != nil || s.running > 0
		stalled := s.pend.n > 0 && s.now.Sub(s.lastProgress) < s.limits.idleTimeout
		if active || stalled {
			s.queue.Push(s.now.Add(quotaInterval), tickEvent{})
		} else {
			// The tick chain ends here; a later Inject restarts it.
			s.tickOn = false
		}
		return true
	}
	return false
}

// recordDemand samples per-org HP usage at every tick and appends the
// hourly average to each org's series when the hour rolls over.
// Averaging smooths Poisson arrival bursts into the hourly usage
// signal production telemetry would report.
func (s *Simulator) recordDemand() {
	// Close the previous hour before sampling the current tick. An org
	// with a series but no samples this hour still advances it.
	if hour := s.now.HourIndex(); hour != s.lastHour {
		if s.lastHour >= 0 && s.hourSamples > 0 {
			n := float64(s.hourSamples)
			for i, org := range s.orgNames {
				if s.hourTouched[i] {
					s.orgDemand[org] = append(s.orgDemand[org], s.hourAccum[i]/n)
				} else if series, ok := s.orgDemand[org]; ok {
					s.orgDemand[org] = append(series, 0)
				}
			}
		}
		s.lastHour = hour
		clear(s.hourAccum)
		clear(s.hourTouched)
		s.hourSamples = 0
	}
	// Accumulate over the live view, compacting finished tasks in
	// place (they are terminal and contribute nothing) without
	// reordering the rest.
	live, liveOrg := s.hpLive[:0], s.hpOrg[:0]
	for i, tk := range s.hpLive {
		if tk.State == task.Finished {
			continue
		}
		slot := s.hpOrg[i]
		live = append(live, tk)
		liveOrg = append(liveOrg, slot)
		if !s.migrated[tk.ID] {
			s.hourAccum[slot] += tk.TotalGPUs()
			s.hourTouched[slot] = true
		}
	}
	clear(s.hpLive[len(live):])
	s.hpLive, s.hpOrg = live, liveOrg
	s.hourSamples++
}

// orgSlot returns org's accumulator slot, assigning one on first
// sight.
func (s *Simulator) orgSlot(org string) int {
	if i, ok := s.orgSlots[org]; ok {
		return i
	}
	i := len(s.orgNames)
	s.orgNames = append(s.orgNames, org)
	s.hourAccum = append(s.hourAccum, 0)
	s.hourTouched = append(s.hourTouched, false)
	s.orgSlots[org] = i
	return i
}

func (s *Simulator) updateQuota() {
	if s.cfg.Quota == nil {
		return
	}
	ctx := &QuotaContext{
		Now:            s.now,
		Cluster:        s.state.Cluster,
		OrgDemand:      s.orgDemand,
		HourIndex:      s.now.HourIndex(),
		EvictionRate:   s.evWindow.Rate(s.now),
		MaxSpotQueue:   s.maxSpotQueue(),
		SpotGuaranteed: s.state.Cluster.SpotGPUs(""),
	}
	s.spotQuota = s.cfg.Quota.Quota(ctx)
	if s.hasObs {
		var eta float64
		if s.etaRep != nil {
			eta = s.etaRep.CurrentEta()
		}
		s.emit(Event{Kind: QuotaUpdated, Quota: s.spotQuota, Used: ctx.SpotGuaranteed, Eta: eta})
	}
}

// autoscaleTick consults the configured autoscaler once per quota
// tick and applies its plan: provisions join the event queue with
// their pre-warm lead (the nodes do not exist — and therefore cannot
// host a pod — until the delivery event fires), retirements apply
// immediately in plan order.
func (s *Simulator) autoscaleTick() {
	if s.cfg.Autoscaler == nil {
		return
	}
	// Only guaranteed work drives capacity purchases; queued spot is
	// opportunistic and harvests whatever headroom exists. The fold
	// runs in queue order: float addition is not associative.
	pend := 0.0
	s.pend.each(func(tk *task.Task) {
		if tk.Type == task.HP {
			pend += tk.TotalGPUs()
		}
	})
	plan := s.cfg.Autoscaler.Plan(&AutoscaleContext{
		Now:         s.now,
		Cluster:     s.state.Cluster,
		OrgDemand:   s.orgDemand,
		HourIndex:   s.now.HourIndex(),
		PendingGPUs: pend,
	})
	for _, p := range plan.Provisions {
		if p.Pool.Nodes <= 0 {
			continue
		}
		lead := p.Lead
		if lead < 0 {
			lead = 0
		}
		s.queue.Push(s.now.Add(lead), provisionEvent{pool: p.Pool})
	}
	retired := false
	for _, id := range plan.Retire {
		if s.retireNode(s.state.Cluster.Node(id)) {
			retired = true
		}
	}
	if retired {
		// A drained spot task can span several retiring nodes, so a
		// retirement later in the plan may have emptied an earlier one.
		if len(s.retiring) > 0 {
			s.checkRetiring()
		}
		s.progressed(false)
	}
}

// retireNode begins retiring one node: it cordons it, announces
// NodeRetired and evicts its spot tasks with the drain cause, while HP
// pods run on. The cordon lands before the event, so observers never
// see a retiring node still schedulable. A node left without pods
// leaves capacity immediately; one still hosting HP pods parks in the
// retiring set and leaves when its last pod completes. It reports
// whether the node was schedulable.
func (s *Simulator) retireNode(n *cluster.Node) bool {
	if n == nil || !n.Schedulable() {
		return false
	}
	n.SetCordoned(true)
	if s.hasObs {
		s.emit(Event{Kind: NodeRetired, Node: n, Tier: n.Tier})
	}
	for _, v := range n.SpotTasks() {
		locs := s.state.NodesOf(v)
		s.state.ReleaseAll(v)
		s.evict(v, CauseDrained, locs)
	}
	if n.UsedGPUs() == 0 {
		n.SetDown(true)
		s.refreshCapacity()
	} else {
		if s.retiring == nil {
			s.retiring = make(map[int]*cluster.Node)
		}
		s.retiring[n.ID] = n
	}
	return true
}

// checkRetiring sweeps the retiring set (in node-ID order, for
// determinism) and takes now-empty nodes out of capacity.
func (s *Simulator) checkRetiring() {
	ids := make([]int, 0, len(s.retiring))
	for id := range s.retiring {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	changed := false
	for _, id := range ids {
		n := s.retiring[id]
		if n.UsedGPUs() == 0 {
			n.SetDown(true)
			delete(s.retiring, id)
			changed = true
		}
	}
	if changed {
		s.refreshCapacity()
	}
}

// evict is the one eviction-bookkeeping path, for a running victim
// whose pods (on locs) have already been released: progress rollback,
// counters, per-node eviction history, event emission and requeueing.
// Every cause but scheduler preemption first offers the victim to the
// eviction interceptor.
func (s *Simulator) evict(v *task.Task, cause EvictCause, locs []NodePods) {
	if v.State != task.Running {
		return
	}
	waste := v.Evict(s.now)
	s.waste += waste
	s.running--
	if v.Type == task.Spot {
		s.fCount++
		s.evWindow.Record(s.now, true)
		for _, np := range locs {
			np.Node.RecordEviction(s.now)
		}
	}
	if s.hasObs {
		s.emit(Event{Kind: TaskEvicted, Task: v, Cause: cause, Waste: waste})
	}
	if cause != CausePreempted && s.cfg.EvictionInterceptor != nil && s.cfg.EvictionInterceptor(v, cause) {
		// Claimed: the task leaves this simulator's books (it will be
		// re-injected elsewhere). Its eviction moved len(v.Runs), so
		// the old run's finish event is still discarded.
		if s.migrated == nil {
			s.migrated = make(map[int]bool)
		}
		s.migrated[v.ID] = true
		return
	}
	s.pend.insert(v)
}

// maxSpotQueue is the worst spot queuing experience over the recent
// window: currently pending waits plus queue segments of recent
// starts.
func (s *Simulator) maxSpotQueue() simclock.Duration {
	var maxQ simclock.Duration
	for _, b := range s.pend.buckets {
		for _, e := range b.entries {
			if e.tk.Type == task.Spot {
				if w := s.now.Sub(e.tk.QueuedSince); w > maxQ {
					maxQ = w
				}
			}
		}
	}
	cutoff := s.now.Add(-quotaWindow)
	kept := s.recentQueues[:0]
	for _, o := range s.recentQueues {
		if o.at >= cutoff {
			kept = append(kept, o)
			if o.dur > maxQ {
				maxQ = o.dur
			}
		}
	}
	s.recentQueues = kept
	return maxQ
}

// schedulePass offers the queue to the scheduler in queue order.
// Placement failure is deterministic in the task's shape while the
// cluster state is unchanged, so a shape that fails is parked — every
// queued task of that shape skipped at once — until a start mutates
// the state. This lets small tasks backfill past blocked large ones
// without rescanning the cluster, or even the queue, per entry.
func (s *Simulator) schedulePass() {
	q := &s.pend
	if q.n == 0 {
		return
	}
	ctx := &s.passCtx
	*ctx = Context{
		Now:   s.now,
		State: s.state,
		G:     s.gCount,
		F:     s.fCount,
	}
	// Admission ramp: quota policies may bound how much new spot
	// capacity one pass admits.
	admitLimit := math.Inf(1)
	if lim, ok := s.cfg.Quota.(AdmissionLimiter); ok {
		if l := lim.MaxAdmitPerPass(s.state.Cluster.TotalGPUs("")); l > 0 {
			admitLimit = l
		}
	}
	admitted := 0.0
	// Entries from passSeq on are victims evicted during this pass;
	// they wait for the next one.
	passSeq := q.seq
	q.begin()
	s.work.passes++
	s.work.shapes += uint64(len(q.walk))
	for failures := 0; failures < s.limits.maxFailures; {
		i := q.min()
		if i < 0 {
			break
		}
		e := q.walk[i].head()
		tk := e.tk
		s.work.examined++
		if e.seq >= passSeq {
			q.skip(i)
			continue
		}
		if tk.State != task.Pending {
			q.remove(i)
			continue
		}
		if tk.Type == task.Spot {
			if admitted > 0 && admitted+tk.TotalGPUs() > admitLimit {
				q.park(i) // ramp-deferred, not a placement failure
				continue
			}
			if s.state.Cluster.SpotGPUs("")+tk.TotalGPUs() > s.spotQuota {
				q.park(i)
				failures++
				continue
			}
		}
		s.work.calls++
		dec, err := s.cfg.Scheduler.Schedule(ctx, tk)
		if err != nil {
			q.park(i)
			failures++
			continue
		}
		if tk.Type == task.Spot {
			admitted += tk.TotalGPUs()
		}
		q.resume(q.remove(i))
		s.apply(tk, dec)
		ctx.G, ctx.F = s.gCount, s.fCount
	}
}

// apply performs the task-lifecycle side effects of a committed
// decision: victim eviction bookkeeping and the task start.
func (s *Simulator) apply(tk *task.Task, dec *Decision) {
	for i, v := range dec.Victims {
		var locs []NodePods
		if i < len(dec.VictimLocs) {
			locs = dec.VictimLocs[i]
		}
		s.evict(v, CausePreempted, locs)
	}
	start := s.now
	if len(dec.Victims) > 0 {
		start = start.Add(s.limits.grace)
	}
	if tk.Type == task.Spot {
		s.recentQueues = append(s.recentQueues, queueObs{at: s.now, dur: start.Sub(tk.QueuedSince)})
	}
	end := tk.Start(start)
	if infl, ok := s.cfg.Scheduler.(RuntimeInflater); ok {
		end = end.Add(infl.InflateRuntime(tk))
	}
	s.running++
	s.work.starts++
	s.queue.Push(end, s.newFinishEvent(tk))
	s.progressed(false)
	if s.hasObs {
		s.emit(Event{Kind: TaskStarted, Task: tk})
	}
}

func (s *Simulator) result() *Result {
	tasks := s.tasks
	if len(s.migrated) > 0 {
		// Tasks that migrated away finished (or died) on another
		// member; they belong in that member's results, not here.
		tasks = make([]*task.Task, 0, len(s.tasks))
		for _, tk := range s.tasks {
			if !s.migrated[tk.ID] {
				tasks = append(tasks, tk)
			}
		}
	}
	r := &Result{
		SchedulerName:    s.cfg.Scheduler.Name(),
		Tasks:            tasks,
		HP:               stats.Summarize(tasks, task.HP),
		Spot:             stats.Summarize(tasks, task.Spot),
		AllocationRate:   s.alloc.Rate(),
		WastedGPUSeconds: s.waste,
		End:              s.now,
		FinalQuota:       s.spotQuota,
	}
	for _, tk := range tasks {
		if tk.State != task.Finished {
			if tk.Type == task.HP {
				r.UnfinishedHP++
			} else {
				r.UnfinishedSpot++
			}
		}
	}
	return r
}
