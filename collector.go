package gfs

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/stats"
)

// This file implements the collector layer: composable metric
// consumers on the typed event spine. A Collector sees every event of
// a run (including the QuotaUpdated quota ticks and AllocSampled
// allocation ticks) and contributes one section to the run's Report.
// The built-ins cover the paper's evaluation surface — per-org task
// metrics with JCT/queue percentiles, eviction breakdown by cause,
// quota-vs-usage with the η trajectory, the allocation timeline and a
// pricing-backed cost ledger — and DefaultCollectors bundles them.
// With no collectors registered the engine's hot loop emits nothing
// and pays nothing.

// PoolInfo describes one GPU pool of the cluster a collector is
// attached to.
type PoolInfo struct {
	// Model is the pool's GPU model.
	Model string
	// GPUs is the pool's schedulable capacity at run start.
	GPUs float64
}

// RunMeta describes the run a collector is attached to: the
// scheduler's name and the cluster shape at run start. Engines build
// it automatically; hand-built metas matter only for driving
// collectors over a recorded event stream.
type RunMeta struct {
	// Scheduler names the placement scheduler.
	Scheduler string
	// TotalGPUs is the cluster's schedulable capacity at run start.
	TotalGPUs float64
	// Pools lists the per-model capacity split, sorted by model.
	Pools []PoolInfo
}

// Collector consumes a run's typed event stream and contributes one
// section to its Report. The lifecycle is Begin (once, before the
// run), OnEvent (for every event, synchronously from the simulation
// loop — so heavy work belongs in Finish), then Finish (to write the
// collected section into the report). Collectors are single-run and
// must not be shared between concurrent runs; RunBatch builds a
// fresh set per spec. Custom collectors append their section to
// Report.Sections.
type Collector interface {
	// Name identifies the collector (custom sections use it as the
	// section name).
	Name() string
	// Begin resets the collector for a run.
	Begin(meta RunMeta)
	// OnEvent consumes one event (Collector satisfies Observer).
	OnEvent(Event)
	// Finish writes the collected section into the report. It must
	// not mutate collector state, so a report can be assembled more
	// than once.
	Finish(rep *Report)
}

// DefaultCollectors returns a fresh instance of every built-in
// collector: summary (with the per-org metrics), eviction breakdown,
// quota trajectory, allocation timeline and the cost ledger (at
// default pricing). This is the set Engine.RunReport attaches when
// none were registered.
func DefaultCollectors() []Collector {
	return []Collector{
		NewSummaryCollector(),
		NewEvictionCollector(),
		NewQuotaCollector(),
		NewAllocationCollector(),
		NewCostCollector(nil),
	}
}

// seq is an append-only sequence kept in chunks whose capacity
// doubles from 16 up to limit elements. A chunk never grows past its
// capacity, so the pointer push returns stays valid for the
// sequence's life, and a long run appends without copying what it
// already holds; a short one allocates little.
type seq[T any] struct {
	chunks [][]T
	n      int
	limit  int
}

// reset empties the sequence, dropping its chunks, and caps the
// chunks it allocates next at limit elements.
func (s *seq[T]) reset(limit int) { *s = seq[T]{limit: limit} }

// push appends v and returns a pointer to the stored copy.
func (s *seq[T]) push(v T) *T {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		size := 16
		if k >= 0 {
			size = min(2*cap(s.chunks[k]), s.limit)
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
		k++
	}
	s.chunks[k] = append(s.chunks[k], v)
	s.n++
	return &s.chunks[k][len(s.chunks[k])-1]
}

// all walks the elements in push order.
func (s *seq[T]) all() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for _, c := range s.chunks {
			for i := range c {
				if !yield(&c[i]) {
					return
				}
			}
		}
	}
}

// flatten returns a fresh exact-size copy of the elements in push
// order, or nil when the sequence is empty.
func (s *seq[T]) flatten() []T {
	if s.n == 0 {
		return nil
	}
	out := make([]T, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Chunk caps: a full tally chunk is 45 KB of records, a full
// timeline or quota chunk 48 KB of points.
const (
	recordChunk = 512
	pointChunk  = 1024
)

// taskRecord is the per-task scratch state the summary collector
// accumulates from the event stream, packed to 88 bytes:
// the org is an index into the tally's org list, the per-cause
// eviction counts are indexed by cause − CausePreempted, and the task
// type is kept as its class slot (classOf).
type taskRecord struct {
	gpus        float64
	submit      Time
	queuedSince Time
	lastStart   Time
	queue       Duration
	jct         Duration
	gpuSeconds  float64
	causes      [4]int32
	org         int32
	evictions   int32
	runs        int32
	class       int8
	finished    bool
}

// taskTally tracks every task seen on the spine, by ID. Records are
// kept by value in first-arrival order so float accumulations
// reproduce the simulator core's own summaries bit-for-bit. The
// summary collector owns the one tally of a collector set and folds
// it into both the per-class and the per-org sections.
type taskTally struct {
	records seq[taskRecord]
	byID    map[int]*taskRecord
	// orgs lists the orgs in first-seen order; orgIndex inverts it.
	orgs     []string
	orgIndex map[string]int32
	end      Time
}

func (t *taskTally) reset() {
	t.records.reset(recordChunk)
	t.byID = make(map[int]*taskRecord)
	t.orgs = nil
	t.orgIndex = make(map[string]int32)
	t.end = 0
}

// org returns the index of the named org, registering it on first
// sight.
func (t *taskTally) org(name string) int32 {
	i, ok := t.orgIndex[name]
	if !ok {
		i = int32(len(t.orgs))
		t.orgs = append(t.orgs, name)
		t.orgIndex[name] = i
	}
	return i
}

// observe folds one event into the tally.
func (t *taskTally) observe(e Event) {
	if e.At > t.end {
		t.end = e.At
	}
	if e.Task == nil {
		return
	}
	switch e.Kind {
	case TaskArrived:
		r := t.byID[e.Task.ID]
		if r == nil {
			r = t.records.push(taskRecord{
				org:    t.org(e.Task.Org),
				class:  classOf(e.Task.Type),
				gpus:   e.Task.TotalGPUs(),
				submit: e.Task.Submit,
			})
			t.byID[e.Task.ID] = r
		}
		// A re-arrival (a task migrating into this member) reopens
		// the queue clock here, matching the task's own bookkeeping.
		r.queuedSince = e.At
	case TaskStarted:
		if r := t.byID[e.Task.ID]; r != nil {
			// StartedAt includes the preemption grace period, which
			// the task's queue accounting charges to the queue.
			r.queue += e.Task.StartedAt.Sub(r.queuedSince)
			r.lastStart = e.Task.StartedAt
		}
	case TaskEvicted:
		if r := t.byID[e.Task.ID]; r != nil {
			r.evictions++
			if c := e.Cause; c >= CausePreempted && c <= CauseDrained {
				r.causes[c-CausePreempted]++
			}
			r.runs++
			// The conversion rounds the product, so no platform
			// fuses it into the sum (likewise below).
			r.gpuSeconds += float64(float64(e.At.Sub(r.lastStart)) * r.gpus)
			r.queuedSince = e.At
		}
	case TaskFinished:
		if r := t.byID[e.Task.ID]; r != nil {
			r.runs++
			r.finished = true
			r.jct = e.At.Sub(r.submit)
			r.gpuSeconds += float64(float64(e.At.Sub(r.lastStart)) * r.gpus)
		}
	}
}

// classOf is a task type's class slot: HP 0, spot 1, -1 for neither.
func classOf(typ TaskType) int8 {
	switch typ {
	case HP:
		return 0
	case Spot:
		return 1
	}
	return -1
}

// summarize folds the tally's records into one ClassMetrics per slot;
// slot maps a record to its slot in [0, slots), or below 0 to skip
// it. Each slot sees its records in first-arrival order. A first pass
// sizes every slot's JCT and queue-wait runs, so one scratch slice
// holds them all at exact size; each run is averaged in record order
// before it is sorted in place for its percentiles.
func (t *taskTally) summarize(slots int, slot func(*taskRecord) int) []ClassMetrics {
	out := make([]ClassMetrics, slots)
	finished := 0
	for r := range t.records.all() {
		if s := slot(r); s >= 0 {
			out[s].Count++
			if r.finished {
				out[s].Finished++
				finished++
			}
		}
	}
	scratch := make([]float64, finished+t.records.n)
	jcts := make([][]float64, slots)
	queues := make([][]float64, slots)
	for s := range out {
		jcts[s], scratch = scratch[:0:out[s].Finished], scratch[out[s].Finished:]
	}
	for s := range out {
		queues[s], scratch = scratch[:0:out[s].Count], scratch[out[s].Count:]
	}
	for r := range t.records.all() {
		s := slot(r)
		if s < 0 {
			continue
		}
		m := &out[s]
		m.Evictions += int(r.evictions)
		m.Runs += int(r.runs)
		m.GPUSeconds += r.gpuSeconds
		if r.finished {
			jcts[s] = append(jcts[s], r.jct.Seconds())
		}
		queues[s] = append(queues[s], r.queue.Seconds())
	}
	for s := range out {
		finishClass(&out[s], jcts[s], queues[s])
	}
	return out
}

// finishClass derives a class's means, percentiles and rates from its
// sums and its JCT and queue-wait samples (in record order), sorting
// the samples in place.
func finishClass(m *ClassMetrics, jcts, queues []float64) {
	m.Unfinished = m.Count - m.Finished
	m.JCTMean = stats.Mean(jcts)
	m.QueueMean = stats.Mean(queues)
	if len(queues) > 0 {
		m.QueueMax = stats.Max(queues)
	}
	jq := stats.Quantiles(jcts, 0.5, 0.95, 0.99)
	m.JCTP50, m.JCTP95, m.JCTP99 = jq[0], jq[1], jq[2]
	qq := stats.Quantiles(queues, 0.5, 0.95, 0.99)
	m.QueueP50, m.QueueP95, m.QueueP99 = qq[0], qq[1], qq[2]
	if m.Runs > 0 {
		m.EvictionRate = float64(m.Evictions) / float64(m.Runs)
	}
}

// allocTally integrates AllocSampled ticks into time-averaged
// allocation rates, one tracker per federation member (a single-
// engine stream uses the "" member).
type allocTally struct {
	initial  float64
	trackers map[string]*stats.AllocationTracker
	members  []string
}

func (a *allocTally) reset(capacity float64) {
	a.initial = capacity
	a.trackers = make(map[string]*stats.AllocationTracker)
	a.members = nil
}

func (a *allocTally) observe(e Event) {
	if e.Kind != AllocSampled {
		return
	}
	tr := a.trackers[e.Member]
	if tr == nil {
		tr = stats.NewAllocationTracker(a.initial)
		a.trackers[e.Member] = tr
		a.members = append(a.members, e.Member)
	}
	if e.Capacity != tr.Capacity() {
		tr.SetCapacity(e.At, e.Capacity)
	}
	tr.Observe(e.At, e.Used)
}

// rate combines the member integrals into one allocation rate.
func (a *allocTally) rate() float64 {
	var used, cap float64
	for _, m := range a.members {
		u, c := a.trackers[m].Integrals()
		used += u
		cap += c
	}
	if cap == 0 {
		return 0
	}
	return used / cap
}

// SummaryCollector rebuilds the legacy Result scalars from the event
// spine alone: task counts, JCT/queue statistics, eviction rates,
// the time-averaged allocation rate, Eq. 17 waste and the final spot
// quota; for any deterministic run its section matches the Result
// Engine.Run returns field for field. From the same task records it
// also breaks the run down by organization: per-org, per-class task
// metrics with JCT and queue-wait percentiles, eviction causes and
// GPU time — the per-org allocation and eviction trajectories of the
// paper's §4.2 tables.
type SummaryCollector struct {
	meta  RunMeta
	tasks taskTally
	alloc allocTally
	waste float64
	quota QuotaValue
}

// NewSummaryCollector builds the collector behind Report.Summary and
// Report.Orgs.
func NewSummaryCollector() *SummaryCollector { return &SummaryCollector{} }

// Name implements Collector.
func (c *SummaryCollector) Name() string { return "summary" }

// Begin implements Collector.
func (c *SummaryCollector) Begin(meta RunMeta) {
	c.meta = meta
	c.tasks.reset()
	c.alloc.reset(meta.TotalGPUs)
	c.waste = 0
	c.quota = QuotaValue(math.Inf(1))
}

// OnEvent implements Collector.
func (c *SummaryCollector) OnEvent(e Event) {
	c.tasks.observe(e)
	c.alloc.observe(e)
	switch e.Kind {
	case TaskEvicted:
		c.waste += e.Waste
	case QuotaUpdated:
		c.quota = QuotaValue(e.Quota)
	}
}

// Finish implements Collector.
func (c *SummaryCollector) Finish(rep *Report) {
	cls := c.tasks.summarize(2, func(r *taskRecord) int { return int(r.class) })
	s := &Summary{
		Scheduler:        c.meta.Scheduler,
		End:              c.tasks.end,
		HP:               cls[0],
		Spot:             cls[1],
		AllocationRate:   c.alloc.rate(),
		WastedGPUSeconds: c.waste,
		FinalQuota:       c.quota,
	}
	rep.Summary = s
	rep.Orgs = c.tasks.byOrg()
	rep.Scheduler = c.meta.Scheduler
	if s.End > rep.End {
		rep.End = s.End
	}
}

// byOrg folds the records into one OrgMetrics per org, sorted by name.
func (t *taskTally) byOrg() []OrgMetrics {
	// byName lists the org indices in name order; rank inverts it.
	byName := make([]int32, len(t.orgs))
	for i := range byName {
		byName[i] = int32(i)
	}
	sort.Slice(byName, func(i, j int) bool { return t.orgs[byName[i]] < t.orgs[byName[j]] })
	rank := make([]int, len(t.orgs))
	for pos, i := range byName {
		rank[i] = pos
	}
	cls := t.summarize(2*len(t.orgs), func(r *taskRecord) int {
		if r.class < 0 {
			return -1
		}
		return 2*rank[r.org] + int(r.class)
	})
	out := make([]OrgMetrics, len(t.orgs))
	for pos, i := range byName {
		out[pos] = OrgMetrics{Org: t.orgs[i], HP: cls[2*pos], Spot: cls[2*pos+1]}
	}
	for r := range t.records.all() {
		m := &out[rank[r.org]]
		m.Evictions.Preempted += int(r.causes[0])
		m.Evictions.NodeFailure += int(r.causes[1])
		m.Evictions.Reclaimed += int(r.causes[2])
		m.Evictions.Drained += int(r.causes[3])
		m.GPUSeconds += r.gpuSeconds
	}
	return out
}

// EvictionCollector breaks evictions down by cause and victim class,
// attributing Eq. 17 waste to each cause — distinguishing scheduler
// (HP) preemption from node failures, reclamation storms and drains.
type EvictionCollector struct {
	b EvictionBreakdown
}

// NewEvictionCollector builds the collector behind Report.Evictions.
func NewEvictionCollector() *EvictionCollector { return &EvictionCollector{} }

// Name implements Collector.
func (c *EvictionCollector) Name() string { return "evictions" }

// Begin implements Collector.
func (c *EvictionCollector) Begin(RunMeta) { c.b = EvictionBreakdown{} }

// OnEvent implements Collector.
func (c *EvictionCollector) OnEvent(e Event) {
	if e.Kind != TaskEvicted || e.Task == nil {
		return
	}
	c.b.Total++
	if e.Task.Type == HP {
		c.b.HP.add(e.Cause)
	} else {
		c.b.Spot.add(e.Cause)
	}
	switch e.Cause {
	case CausePreempted:
		c.b.WastePreempted += e.Waste
	case CauseNodeFailure:
		c.b.WasteNodeFailure += e.Waste
	case CauseReclaimed:
		c.b.WasteReclaimed += e.Waste
	case CauseDrained:
		c.b.WasteDrained += e.Waste
	}
}

// Finish implements Collector.
func (c *EvictionCollector) Finish(rep *Report) {
	b := c.b
	rep.Evictions = &b
}

// QuotaCollector records every quota tick — the quota set, the spot
// usage it constrains, and the η safety coefficient when the policy
// reports one — and summarizes how closely the feedback loop tracks
// its target.
type QuotaCollector struct {
	samples seq[QuotaSample]
}

// NewQuotaCollector builds the collector behind Report.Quota.
func NewQuotaCollector() *QuotaCollector { return &QuotaCollector{} }

// Name implements Collector.
func (c *QuotaCollector) Name() string { return "quota" }

// Begin implements Collector.
func (c *QuotaCollector) Begin(RunMeta) { c.samples.reset(pointChunk) }

// OnEvent implements Collector.
func (c *QuotaCollector) OnEvent(e Event) {
	if e.Kind != QuotaUpdated {
		return
	}
	c.samples.push(QuotaSample{
		At:       e.At,
		Member:   e.Member,
		Quota:    QuotaValue(e.Quota),
		SpotUsed: e.Used,
		Eta:      e.Eta,
	})
}

// Finish implements Collector.
func (c *QuotaCollector) Finish(rep *Report) {
	samples := c.samples.flatten()
	tr := &QuotaTrajectory{Samples: samples}
	n := 0
	for _, s := range samples {
		tr.FinalEta = s.Eta
		if s.Quota.unlimited() {
			continue
		}
		err := float64(s.Quota) - s.SpotUsed
		if err < 0 {
			err = -err
		}
		tr.MeanAbsError += err
		if err > tr.MaxAbsError {
			tr.MaxAbsError = err
		}
		n++
	}
	if n > 0 {
		tr.MeanAbsError /= float64(n)
	}
	rep.Quota = tr
	if k := len(samples); k > 0 && samples[k-1].At > rep.End {
		rep.End = samples[k-1].At
	}
}

// AllocationCollector records the allocation timeline: one point per
// distinct (used, capacity) step of the run, rebuilt from the
// AllocSampled ticks the simulator mirrors onto the spine. On a
// federation aggregate stream each member's trajectory coalesces
// independently, so interleaved members cannot defeat the
// deduplication.
type AllocationCollector struct {
	points seq[AllocPoint]
	last   map[string]AllocPoint
}

// NewAllocationCollector builds the collector behind Report.Timeline.
func NewAllocationCollector() *AllocationCollector { return &AllocationCollector{} }

// Name implements Collector.
func (c *AllocationCollector) Name() string { return "timeline" }

// Begin implements Collector.
func (c *AllocationCollector) Begin(RunMeta) {
	c.points.reset(pointChunk)
	c.last = make(map[string]AllocPoint)
}

// OnEvent implements Collector.
func (c *AllocationCollector) OnEvent(e Event) {
	if e.Kind != AllocSampled {
		return
	}
	p := AllocPoint{At: e.At, Member: e.Member, Used: e.Used, Capacity: e.Capacity}
	if e.Capacity > 0 {
		p.Rate = e.Used / e.Capacity
	}
	// Coalesce repeats per member: only steps change the timeline.
	if last, ok := c.last[p.Member]; ok && last.Used == p.Used && last.Capacity == p.Capacity {
		return
	}
	c.last[p.Member] = p
	c.points.push(p)
}

// Finish implements Collector.
func (c *AllocationCollector) Finish(rep *Report) {
	rep.Timeline = c.points.flatten()
	if n := len(rep.Timeline); n > 0 && rep.Timeline[n-1].At > rep.End {
		rep.End = rep.Timeline[n-1].At
	}
}

// CostCollector prices the run's allocation per GPU pool,
// reproducing the paper's monthly-benefit accounting (§4.3):
// each pool's allocation-rate improvement over its baseline ×
// on-demand list price × 730 h × the ≈26% spot margin. Tasks
// pinned to a GPU model charge that pool; unpinned tasks spread over
// pools by capacity share.
type CostCollector struct {
	baseline map[string]float64
	// pools holds one record per GPU model, sorted by model.
	pools []poolBook
	// tiers attributes autoscaled capacity per (tier, model), sorted
	// by tier and then model. Billing runs from NodeProvisioned to
	// NodeRetired; the drain tail after a retirement begins is not
	// billed.
	tiers   []tierBook
	lastAt  Time
	firstAt Time
	started bool
}

// poolBook is one GPU pool's live capacity and usage and their
// GPU-seconds integrals. integrateTo advances the usage integral;
// the capacity integral closes a segment only when the capacity
// changes (setCap), so a pool whose capacity never changes integrates
// to capacity × span in one product, exactly.
type poolBook struct {
	model     string
	cap, used float64
	area      float64
	// capArea integrates cap over the closed segments; the open one
	// runs from since.
	capArea float64
	since   Time
}

// tierBook is one (tier, model) billing record: its live provisioned
// capacity, that capacity's GPU-seconds integral, and its delivery
// and retirement counts.
type tierBook struct {
	tier, model string
	cap, area   float64
	prov, ret   int
}

// NewCostCollector builds the collector behind Report.Cost.
// baselineRates holds the pre-deployment allocation rate per GPU model
// the run's rates are priced against (Fig. 9's "pre" column); models
// missing from the map price the full achieved rate.
func NewCostCollector(baselineRates map[string]float64) *CostCollector {
	return &CostCollector{baseline: baselineRates}
}

// Name implements Collector.
func (c *CostCollector) Name() string { return "cost" }

// Begin implements Collector.
func (c *CostCollector) Begin(meta RunMeta) {
	c.pools = nil
	c.tiers = nil
	c.started = false
	c.firstAt, c.lastAt = 0, 0
	for _, p := range meta.Pools {
		c.pool(p.Model).cap += p.GPUs
	}
}

// pool returns the model's record, inserting an empty one in model
// order for a model the run-start pools did not list (a provisioned
// pool, or a pinned task's model). The pointer is valid until the
// next insertion.
func (c *CostCollector) pool(model string) *poolBook {
	i, ok := slices.BinarySearchFunc(c.pools, model, func(p poolBook, m string) int {
		return strings.Compare(p.model, m)
	})
	if !ok {
		c.pools = slices.Insert(c.pools, i, poolBook{model: model, since: c.lastAt})
	}
	return &c.pools[i]
}

// tier returns the (tier, model) billing record, inserting an empty
// one in order on first sight. The pointer is valid until the next
// insertion.
func (c *CostCollector) tier(tier, model string) *tierBook {
	k := tierBook{tier: tier, model: model}
	i, ok := slices.BinarySearchFunc(c.tiers, k, func(a, b tierBook) int {
		return cmp.Or(strings.Compare(a.tier, b.tier), strings.Compare(a.model, b.model))
	})
	if !ok {
		c.tiers = slices.Insert(c.tiers, i, k)
	}
	return &c.tiers[i]
}

// integrateTo closes the integration windows up to at.
func (c *CostCollector) integrateTo(at Time) {
	if !c.started {
		return
	}
	dt := float64(at.Sub(c.lastAt))
	if dt > 0 {
		// The conversions round each product, so no platform fuses it
		// into the sum.
		for i := range c.pools {
			p := &c.pools[i]
			p.area += float64(p.used * dt)
		}
		for i := range c.tiers {
			t := &c.tiers[i]
			t.area += float64(t.cap * dt)
		}
		c.lastAt = at
	}
}

// setCap moves a pool's capacity to gpus at the integration point,
// closing the open segment of its capacity integral.
func (c *CostCollector) setCap(p *poolBook, gpus float64) {
	if c.started {
		p.capArea += float64(p.cap * float64(c.lastAt.Sub(p.since)))
		p.since = c.lastAt
	}
	p.cap = gpus
}

// charge adjusts per-model usage by delta GPUs for a task, spreading
// unpinned tasks over pools by capacity share. With no pool to spread
// over, an unpinned task charges nothing.
func (c *CostCollector) charge(model string, delta float64) {
	if model != "" {
		c.pool(model).used += delta
		return
	}
	if len(c.pools) == 0 {
		return
	}
	total := 0.0
	for _, p := range c.pools {
		total += p.cap
	}
	if total <= 0 {
		c.pools[0].used += delta
		return
	}
	for i := range c.pools {
		p := &c.pools[i]
		p.used += delta * p.cap / total
	}
}

// OnEvent implements Collector.
func (c *CostCollector) OnEvent(e Event) {
	switch e.Kind {
	case AllocSampled:
		if !c.started {
			c.started = true
			c.firstAt = e.At
			c.lastAt = e.At
			for i := range c.pools {
				c.pools[i].since = e.At
			}
			return
		}
		c.integrateTo(e.At)
	case TaskStarted:
		c.integrateTo(e.At)
		c.charge(e.Task.GPUModel, e.Task.TotalGPUs())
	case TaskEvicted, TaskFinished:
		c.integrateTo(e.At)
		c.charge(e.Task.GPUModel, -e.Task.TotalGPUs())
	case NodeProvisioned:
		// Autoscaled capacity: grow (or create) the node's pool so the
		// ledger covers capacity added mid-run, and open its per-tier
		// billing window. A NodeDown/NodeUp pair only takes a node
		// the ledger already counts out of service and back, so
		// neither moves the books.
		if e.Node == nil {
			return
		}
		c.integrateTo(e.At)
		gpus := float64(e.Node.Capacity())
		p := c.pool(e.Node.Model)
		c.setCap(p, p.cap+gpus)
		t := c.tier(e.Tier, e.Node.Model)
		t.cap += gpus
		t.prov++
	case NodeRetired:
		// Retirement closes the capacity window at cordon time: the
		// node takes no new work, so both its tier billing and its
		// pool capacity end here (the drain tail is neither billed
		// nor counted as allocatable).
		if e.Node == nil {
			return
		}
		c.integrateTo(e.At)
		gpus := float64(e.Node.Capacity())
		p := c.pool(e.Node.Model)
		c.setCap(p, max(p.cap-gpus, 0))
		t := c.tier(e.Tier, e.Node.Model)
		t.cap = max(t.cap-gpus, 0)
		t.ret++
	}
}

// Finish implements Collector.
func (c *CostCollector) Finish(rep *Report) {
	ledger := &CostLedger{
		Margin:        pricing.DefaultSpotMargin,
		HoursPerMonth: pricing.HoursPerMonth,
	}
	prices := pricing.DefaultTable()
	for _, p := range c.pools {
		// A pool's rate is its usage integral over its capacity
		// integral (the closed segments plus the open one), so
		// capacity provisioned and later retired counts on both sides.
		rate := 0.0
		if capArea := p.capArea + float64(p.cap*float64(c.lastAt.Sub(p.since))); capArea > 0 {
			rate = p.area / capArea
		}
		price := prices[p.model]
		pc := PoolCost{
			Model:           p.model,
			GPUs:            p.cap,
			BaselineRate:    c.baseline[p.model],
			Rate:            rate,
			PricePerGPUHour: price,
		}
		// The Fig. 9 formula, per pool.
		pc.MonthlyBenefitUSD = pricing.PoolBenefit(pc.GPUs, pc.Rate-pc.BaselineRate, price)
		ledger.MonthlyBenefitUSD += pc.MonthlyBenefitUSD
		ledger.Pools = append(ledger.Pools, pc)
	}
	// Per-tier attribution of autoscaled capacity, in (tier, model)
	// order; a record only ever retired from bills nothing and is left
	// out. Absent without an autoscaler, so pre-existing reports are
	// byte-stable.
	for _, t := range c.tiers {
		if t.prov == 0 {
			continue
		}
		hours := t.area / 3600
		price := pricing.TierPrice(prices, t.model, t.tier)
		// The conversion rounds the spend, so no platform fuses it into
		// the total below.
		spend := float64(hours * price)
		tc := TierCost{
			Tier:            t.tier,
			Model:           t.model,
			GPUHours:        hours,
			PricePerGPUHour: price,
			SpendUSD:        spend,
			Provisioned:     t.prov,
			Retired:         t.ret,
		}
		ledger.TierSpendUSD += tc.SpendUSD
		ledger.Tiers = append(ledger.Tiers, tc)
	}
	rep.Cost = ledger
	if c.lastAt > rep.End {
		rep.End = c.lastAt
	}
}
