package gfs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/sjtucitlab/gfs/internal/stats"
)

// This file checks the collectors' chunked, packed storage against the
// per-task heap records and regrown slices it replaced, kept here as
// oracles: the old task tally and class summary behind the summary and
// org collectors, and the old quota and timeline collectors.

// oracleRecord is the old per-task heap record.
type oracleRecord struct {
	org         string
	typ         TaskType
	gpus        float64
	submit      Time
	queuedSince Time
	lastStart   Time
	queue       Duration
	jct         Duration
	finished    bool
	evictions   int
	causes      EvictionCounts
	runs        int
	gpuSeconds  float64
}

// oracleTally is the old taskTally: a pointer map plus an order slice.
type oracleTally struct {
	byID  map[int]*oracleRecord
	order []*oracleRecord
	end   Time
}

func (t *oracleTally) reset() {
	t.byID = make(map[int]*oracleRecord)
	t.order = nil
	t.end = 0
}

func (t *oracleTally) observe(e Event) {
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
			r = &oracleRecord{
				org:    e.Task.Org,
				typ:    e.Task.Type,
				gpus:   e.Task.TotalGPUs(),
				submit: e.Task.Submit,
			}
			t.byID[e.Task.ID] = r
			t.order = append(t.order, r)
		}
		r.queuedSince = e.At
	case TaskStarted:
		if r := t.byID[e.Task.ID]; r != nil {
			r.queue += e.Task.StartedAt.Sub(r.queuedSince)
			r.lastStart = e.Task.StartedAt
		}
	case TaskEvicted:
		if r := t.byID[e.Task.ID]; r != nil {
			r.evictions++
			r.causes.add(e.Cause)
			r.runs++
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

// oracleQuantiles is the old stats.Quantiles, which sorted a copy.
func oracleQuantiles(xs []float64, ps ...float64) []float64 {
	return stats.Quantiles(append([]float64(nil), xs...), ps...)
}

// oracleClassMetrics is the old classMetrics: one filtering pass with
// regrown sample slices.
func oracleClassMetrics(records []*oracleRecord, typ TaskType) ClassMetrics {
	var m ClassMetrics
	var jcts, queues []float64
	for _, r := range records {
		if r.typ != typ {
			continue
		}
		m.Count++
		m.Evictions += r.evictions
		m.Runs += r.runs
		m.GPUSeconds += r.gpuSeconds
		if r.finished {
			m.Finished++
			jcts = append(jcts, r.jct.Seconds())
		}
		queues = append(queues, r.queue.Seconds())
	}
	m.Unfinished = m.Count - m.Finished
	m.JCTMean = stats.Mean(jcts)
	jq := oracleQuantiles(jcts, 0.5, 0.95, 0.99)
	m.JCTP50, m.JCTP95, m.JCTP99 = jq[0], jq[1], jq[2]
	m.QueueMean = stats.Mean(queues)
	qq := oracleQuantiles(queues, 0.5, 0.95, 0.99)
	m.QueueP50, m.QueueP95, m.QueueP99 = qq[0], qq[1], qq[2]
	if len(queues) > 0 {
		m.QueueMax = stats.Max(queues)
	}
	if m.Runs > 0 {
		m.EvictionRate = float64(m.Evictions) / float64(m.Runs)
	}
	return m
}

// oracleSummary is the old SummaryCollector over oracleTally.
type oracleSummary struct {
	meta  RunMeta
	tasks oracleTally
	alloc allocTally
	waste float64
	quota QuotaValue
}

func (c *oracleSummary) Name() string { return "summary" }

func (c *oracleSummary) Begin(meta RunMeta) {
	c.meta = meta
	c.tasks.reset()
	c.alloc.reset(meta.TotalGPUs)
	c.waste = 0
	c.quota = QuotaValue(math.Inf(1))
}

func (c *oracleSummary) OnEvent(e Event) {
	c.tasks.observe(e)
	c.alloc.observe(e)
	switch e.Kind {
	case TaskEvicted:
		c.waste += e.Waste
	case QuotaUpdated:
		c.quota = QuotaValue(e.Quota)
	}
}

func (c *oracleSummary) Finish(rep *Report) {
	s := &Summary{
		Scheduler:        c.meta.Scheduler,
		End:              c.tasks.end,
		HP:               oracleClassMetrics(c.tasks.order, HP),
		Spot:             oracleClassMetrics(c.tasks.order, Spot),
		AllocationRate:   c.alloc.rate(),
		WastedGPUSeconds: c.waste,
		FinalQuota:       c.quota,
	}
	rep.Summary = s
	rep.Scheduler = c.meta.Scheduler
	if s.End > rep.End {
		rep.End = s.End
	}
}

// oracleOrgs is the old OrgCollector, grouping records in a map of
// slices.
type oracleOrgs struct{ tasks oracleTally }

func (c *oracleOrgs) Name() string    { return "orgs" }
func (c *oracleOrgs) Begin(RunMeta)   { c.tasks.reset() }
func (c *oracleOrgs) OnEvent(e Event) { c.tasks.observe(e) }

func (c *oracleOrgs) Finish(rep *Report) {
	byOrg := make(map[string][]*oracleRecord)
	var orgs []string
	for _, r := range c.tasks.order {
		if _, ok := byOrg[r.org]; !ok {
			orgs = append(orgs, r.org)
		}
		byOrg[r.org] = append(byOrg[r.org], r)
	}
	sort.Strings(orgs)
	out := make([]OrgMetrics, 0, len(orgs))
	for _, org := range orgs {
		records := byOrg[org]
		m := OrgMetrics{
			Org:  org,
			HP:   oracleClassMetrics(records, HP),
			Spot: oracleClassMetrics(records, Spot),
		}
		for _, r := range records {
			m.Evictions.Preempted += r.causes.Preempted
			m.Evictions.NodeFailure += r.causes.NodeFailure
			m.Evictions.Reclaimed += r.causes.Reclaimed
			m.Evictions.Drained += r.causes.Drained
			m.GPUSeconds += r.gpuSeconds
		}
		out = append(out, m)
	}
	rep.Orgs = out
	if c.tasks.end > rep.End {
		rep.End = c.tasks.end
	}
}

// oracleQuota is the old QuotaCollector over one regrown slice.
type oracleQuota struct{ samples []QuotaSample }

func (c *oracleQuota) Name() string  { return "quota" }
func (c *oracleQuota) Begin(RunMeta) { c.samples = nil }

func (c *oracleQuota) OnEvent(e Event) {
	if e.Kind != QuotaUpdated {
		return
	}
	c.samples = append(c.samples, QuotaSample{
		At:       e.At,
		Member:   e.Member,
		Quota:    QuotaValue(e.Quota),
		SpotUsed: e.Used,
		Eta:      e.Eta,
	})
}

func (c *oracleQuota) Finish(rep *Report) {
	tr := &QuotaTrajectory{Samples: append([]QuotaSample(nil), c.samples...)}
	n := 0
	for _, s := range c.samples {
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
	if k := len(c.samples); k > 0 && c.samples[k-1].At > rep.End {
		rep.End = c.samples[k-1].At
	}
}

// oracleTimeline is the old AllocationCollector over one regrown
// slice.
type oracleTimeline struct {
	points []AllocPoint
	last   map[string]AllocPoint
}

func (c *oracleTimeline) Name() string { return "timeline" }

func (c *oracleTimeline) Begin(RunMeta) {
	c.points = nil
	c.last = make(map[string]AllocPoint)
}

func (c *oracleTimeline) OnEvent(e Event) {
	if e.Kind != AllocSampled {
		return
	}
	p := AllocPoint{At: e.At, Member: e.Member, Used: e.Used, Capacity: e.Capacity}
	if e.Capacity > 0 {
		p.Rate = e.Used / e.Capacity
	}
	if last, ok := c.last[p.Member]; ok && last.Used == p.Used && last.Capacity == p.Capacity {
		return
	}
	c.last[p.Member] = p
	c.points = append(c.points, p)
}

func (c *oracleTimeline) Finish(rep *Report) {
	rep.Timeline = append([]AllocPoint(nil), c.points...)
	if n := len(c.points); n > 0 && c.points[n-1].At > rep.End {
		rep.End = c.points[n-1].At
	}
}

// oracleSet rides a run beside the live collectors: the old
// collectors, plus the unchanged eviction and cost collectors, see the
// same events and finish into their own report, rep.
type oracleSet struct {
	cs  []Collector
	rep *Report
}

func newOracleSet() *oracleSet {
	return &oracleSet{cs: []Collector{&oracleSummary{}, &oracleOrgs{}, NewEvictionCollector(),
		&oracleQuota{}, &oracleTimeline{}, NewCostCollector(nil)}}
}

func (o *oracleSet) Name() string { return "oracle" }

func (o *oracleSet) Begin(meta RunMeta) {
	for _, c := range o.cs {
		c.Begin(meta)
	}
}

func (o *oracleSet) OnEvent(e Event) {
	for _, c := range o.cs {
		c.OnEvent(e)
	}
}

func (o *oracleSet) Finish(*Report) {
	o.rep = &Report{}
	for _, c := range o.cs {
		c.Finish(o.rep)
	}
}

// collectorTrace is the first n tasks of a seeded four-day trace
// sized for 512 GPUs, about 3,500 tasks in all.
func collectorTrace(seed int64, n int) []*Task {
	cfg := DefaultTraceConfig()
	cfg.Seed = seed
	cfg.Days = 4
	cfg.ClusterGPUs = 512
	cfg.MaxDuration = 6 * Hour
	tasks := GenerateTrace(cfg)
	return tasks[:min(n, len(tasks))]
}

// collectorRun runs tasks with the collector sets mk builds, in one
// of three arms: a storm (periodic spot reclamation plus a rack
// failure), a two-member federation whose spillover re-arrives the
// failed zone's victims on the other member, and an autoscaled run. It
// returns the run's reports and a function that assembles them again,
// both in the order mk was called: one set per engine, or the members'
// sets and then the aggregate's.
func collectorRun(t *testing.T, arm int, tasks []*Task, mk func() []Collector) (first []*Report, again func() []*Report) {
	t.Helper()
	var spec BatchSpec
	switch arm {
	case 0:
		var eng *Engine
		spec.Setup = func() (*Engine, []*Task) {
			cl := NewCluster("A100", 64, 8)
			cl.AssignDomains(2, 4)
			sc := NewScenario().DiurnalReclamation(0, 96*Hour, Hour, DefaultDiurnalProfile("A100")).
				FailDomain(6*Hour, "zone-0/rack-1").RestoreDomain(10*Hour, "zone-0/rack-1")
			eng = NewEngine(cl, WithScenario(sc), WithCollectors(mk()...))
			return eng, tasks
		}
		again = func() []*Report { return []*Report{eng.report()} }
	case 1:
		var fed *Federation
		spec.SetupFederation = func() (*Federation, []*Task) {
			west, east := NewCluster("A100", 32, 8), NewCluster("A100", 32, 8)
			west.AssignDomains(2, 4)
			storm := NewScenario().FailDomain(6*Hour, "zone-0").RestoreDomain(12*Hour, "zone-0")
			fed = NewFederation([]Member{
				{Name: "west", Engine: NewEngine(west, WithScenario(storm))},
				{Name: "east", Engine: NewEngine(east)},
			}, WithFederationCollectors(mk))
			return fed, tasks
		}
		again = func() []*Report {
			fr := fed.report()
			return append([]*Report{fr.Members[0].Report, fr.Members[1].Report}, fr.Aggregate)
		}
	default:
		var eng *Engine
		spec.Setup = func() (*Engine, []*Task) {
			pol := &AutoscalePolicy{Mode: AutoscaleReactive, MaxNodes: 24, Step: 2}
			eng = NewEngine(NewCluster("A100", 48, 8), WithAutoscaler(pol), WithCollectors(mk()...))
			return eng, tasks
		}
		again = func() []*Report { return []*Report{eng.report()} }
	}
	br := RunBatch([]BatchSpec{spec})[0]
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	if fr := br.FedReport; fr != nil {
		return append([]*Report{fr.Members[0].Report, fr.Members[1].Report}, fr.Aggregate), again
	}
	return []*Report{br.Report}, again
}

// reportDiff names the first section in which two reports differ, or
// returns "" when they are deeply equal.
func reportDiff(got, want *Report) string {
	for _, s := range []struct {
		name      string
		got, want any
	}{
		{"scheduler", got.Scheduler, want.Scheduler},
		{"end", got.End, want.End},
		{"summary", got.Summary, want.Summary},
		{"orgs", got.Orgs, want.Orgs},
		{"evictions", got.Evictions, want.Evictions},
		{"quota", got.Quota, want.Quota},
		{"timeline", got.Timeline, want.Timeline},
		{"cost", got.Cost, want.Cost},
		{"sections", got.Sections, want.Sections},
	} {
		if !reflect.DeepEqual(s.got, s.want) {
			return fmt.Sprintf("%s differs:\n got: %+v\nwant: %+v", s.name, s.got, s.want)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "reports differ"
	}
	return ""
}

// syntheticStream is a stream of n tasks over seven orgs, in arrival
// order: each arrives, waits, runs, and either finishes or is evicted
// (by any cause) and waits and runs again, with each wait and run
// drawn below span seconds; every start and stop is followed by an
// AllocSampled tick and every tenth task by a QuotaUpdated tick. Each
// TaskStarted event carries its own copy of the task, as the live task
// reads at that instant.
func syntheticStream(rng *rand.Rand, n int, span int64) []Event {
	var events []Event
	used := 0.0
	sample := func(at Time) {
		events = append(events, Event{Kind: AllocSampled, At: at, Used: used, Capacity: 4096})
	}
	submit := Time(0)
	for i := range n {
		tk := &Task{ID: i + 1, Org: fmt.Sprintf("org-%d", rng.IntN(7)), Pods: 1 + rng.IntN(4),
			GPUsPerPod: 1, Type: TaskType(rng.IntN(2)), Submit: submit}
		events = append(events, Event{Kind: TaskArrived, At: submit, Task: tk})
		at := submit
		for run := 0; ; run++ {
			at += Time(rng.Int64N(span))
			started := *tk
			started.StartedAt = at
			events = append(events, Event{Kind: TaskStarted, At: at, Task: &started})
			used += tk.TotalGPUs()
			sample(at)
			at += Time(1 + rng.Int64N(span))
			used -= tk.TotalGPUs()
			if run < 2 && rng.IntN(4) == 0 {
				events = append(events, Event{Kind: TaskEvicted, At: at, Task: tk,
					Cause: CausePreempted + EvictCause(rng.IntN(4)), Waste: float64(rng.IntN(100))})
				sample(at)
				continue
			}
			events = append(events, Event{Kind: TaskFinished, At: at, Task: tk})
			sample(at)
			break
		}
		if i%10 == 0 {
			events = append(events, Event{Kind: QuotaUpdated, At: at, Quota: float64(rng.IntN(500)), Used: used, Eta: rng.Float64()})
		}
		submit += Time(rng.Int64N(60))
	}
	return events
}

// syntheticMeta is the run a synthetic stream belongs to.
var syntheticMeta = RunMeta{Scheduler: "synthetic", TotalGPUs: 4096, Pools: []PoolInfo{{Model: "A100", GPUs: 4096}}}

// replayCollectors begins cs, feeds them events and finishes them into
// a fresh report.
func replayCollectors(cs []Collector, meta RunMeta, events []Event) *Report {
	for _, c := range cs {
		c.Begin(meta)
	}
	for _, e := range events {
		for _, c := range cs {
			c.OnEvent(e)
		}
	}
	rep := &Report{}
	for _, c := range cs {
		c.Finish(rep)
	}
	return rep
}

// FuzzCollectors is the differential witness of the collectors'
// storage: the built-in collectors and the oracles observe the same
// stream, and every report must be deeply equal to its oracle's,
// export the same JSONL bytes, and stay so when it is assembled a
// second time. Arms 0–2 are collectorRun's runs of 1 to 3,000 tasks;
// arm 3 is a synthetic stream whose waits and runs reach up to 2^52
// seconds, where float sums of whole seconds stop being exact, so
// summing them in another order changes the means. The seeds pass the
// first full 512-record and 1,024-point chunks in every arm.
func FuzzCollectors(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(40), uint8(1))
	f.Add(int64(3), uint16(300), uint8(2))
	f.Add(int64(17), uint16(1200), uint8(0))
	f.Add(int64(23), uint16(2999), uint8(1))
	f.Add(int64(5), uint16(2999), uint8(2))
	f.Add(int64(51), uint16(1500), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, arm uint8) {
		var oracles []*oracleSet
		mk := func() []Collector {
			o := newOracleSet()
			oracles = append(oracles, o)
			return append(DefaultCollectors(), o)
		}
		var first []*Report
		var again func() []*Report
		if arm%4 == 3 {
			rng := rand.New(rand.NewPCG(uint64(seed), 0))
			events := syntheticStream(rng, 1+int(n)%3000, int64(1)<<(1+uint64(seed)%52))
			cs := mk()
			first = []*Report{replayCollectors(cs, syntheticMeta, events)}
			again = func() []*Report {
				rep := &Report{}
				for _, c := range cs {
					c.Finish(rep)
				}
				return []*Report{rep}
			}
		} else {
			first, again = collectorRun(t, int(arm%4), collectorTrace(seed, 1+int(n)%3000), mk)
		}
		second := again()
		for i, o := range oracles {
			var want bytes.Buffer
			if err := o.rep.WriteJSONL(&want); err != nil {
				t.Fatal(err)
			}
			for round, rep := range []*Report{first[i], second[i]} {
				if d := reportDiff(rep, o.rep); d != "" {
					t.Fatalf("report %d, assembly %d: %s", i, round+1, d)
				}
				var got bytes.Buffer
				if err := rep.WriteJSONL(&got); err != nil {
					t.Fatal(err)
				}
				sameOutcome(t, fmt.Sprintf("report %d, assembly %d jsonl", i, round+1), want.Bytes(), got.Bytes(), nil, nil)
			}
		}
	})
}

// TestCollectorsBeginResets: Begin resets every built-in collector, so
// a collector set begun twice over one recorded stream reports the
// same both times, and a set begun again over an empty stream reports
// what a fresh set does. The stream is an autoscaled run's, so the
// cost collector's per-tier books are exercised.
func TestCollectorsBeginResets(t *testing.T) {
	pol := &AutoscalePolicy{Mode: AutoscaleReactive, MaxNodes: 8, Step: 2}
	var events []Event
	provisioned := 0
	rec := ObserverFunc(func(e Event) {
		if e.Task != nil {
			// The run mutates its tasks; keep each event's view.
			tk := *e.Task
			e.Task = &tk
		}
		if e.Kind == NodeProvisioned {
			provisioned++
		}
		events = append(events, e)
	})
	eng := NewEngine(NewCluster("A100", 10, 8), WithAutoscaler(pol), WithObserver(rec))
	meta := eng.runMeta()
	eng.Run(collectorTrace(13, 1500))
	if provisioned == 0 {
		t.Fatal("the autoscaler provisioned nothing")
	}
	cs := DefaultCollectors()
	first := replayCollectors(cs, meta, events)
	if d := reportDiff(replayCollectors(cs, meta, events), first); d != "" {
		t.Fatalf("second Begin over the same stream: %s", d)
	}
	if d := reportDiff(replayCollectors(cs, meta, nil), replayCollectors(DefaultCollectors(), meta, nil)); d != "" {
		t.Fatalf("Begin again over an empty stream: %s", d)
	}
}

// TestCollectorAllocsPerTask: the built-in collectors' allocations over
// a 10,000-task stream are bounded by a constant far below one per
// task, since records and points are stored in chunks (a heap record
// per task and regrown slices took 20,783). The ceiling is 2 % above
// the 352 measured when it was set.
func TestCollectorAllocsPerTask(t *testing.T) {
	const tasks, ceiling = 10000, 359
	events := syntheticStream(rand.New(rand.NewPCG(1, 0)), tasks, 600)
	cs := DefaultCollectors()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replayCollectors(cs, syntheticMeta, events)
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	if got > ceiling {
		t.Fatalf("%d tasks allocate %d times, ceiling %d", tasks, got, ceiling)
	}
	t.Logf("%d tasks allocate %d times, ceiling %d", tasks, got, ceiling)
}
