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

	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/stats"
)

// This file checks the collectors against the code they replaced,
// kept here as oracles: the old task tally and class summary behind
// the summary collector, the old org collector (whose section the
// summary collector now writes from its own tally), the old quota and
// timeline collectors, and the old cost ledger of parallel maps.

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

// oracleTierKey is the old cost ledger's (tier, model) map key.
type oracleTierKey struct{ tier, model string }

// oracleCost is the old CostCollector: parallel maps keyed by model
// and by (tier, model), sorted mirrors of their keys, and each pool's
// rate taken over its capacity at run end.
type oracleCost struct {
	baseline map[string]float64
	models   []string
	cap      map[string]float64
	used     map[string]float64
	area     map[string]float64
	lastAt   Time
	firstAt  Time
	started  bool
	tierCap  map[oracleTierKey]float64
	tierArea map[oracleTierKey]float64
	tierProv map[oracleTierKey]int
	tierRet  map[oracleTierKey]int
	tiers    []oracleTierKey
}

func (c *oracleCost) Name() string { return "cost" }

func (c *oracleCost) Begin(meta RunMeta) {
	c.models = nil
	c.cap = make(map[string]float64)
	c.used = make(map[string]float64)
	c.area = make(map[string]float64)
	c.started = false
	c.firstAt, c.lastAt = 0, 0
	c.tiers = nil
	c.tierCap = make(map[oracleTierKey]float64)
	c.tierArea = make(map[oracleTierKey]float64)
	c.tierProv = make(map[oracleTierKey]int)
	c.tierRet = make(map[oracleTierKey]int)
	for _, p := range meta.Pools {
		c.models = append(c.models, p.Model)
		c.cap[p.Model] += p.GPUs
	}
	sort.Strings(c.models)
}

func (c *oracleCost) addModel(model string) {
	if _, ok := c.cap[model]; ok {
		return
	}
	c.cap[model] = 0
	i := sort.SearchStrings(c.models, model)
	c.models = append(c.models, "")
	copy(c.models[i+1:], c.models[i:])
	c.models[i] = model
}

func (c *oracleCost) addTier(k oracleTierKey) {
	if _, ok := c.tierCap[k]; ok {
		return
	}
	c.tierCap[k] = 0
	i := sort.Search(len(c.tiers), func(i int) bool {
		t := c.tiers[i]
		if t.tier != k.tier {
			return t.tier > k.tier
		}
		return t.model >= k.model
	})
	c.tiers = append(c.tiers, oracleTierKey{})
	copy(c.tiers[i+1:], c.tiers[i:])
	c.tiers[i] = k
}

func (c *oracleCost) integrateTo(at Time) {
	if !c.started {
		return
	}
	dt := float64(at.Sub(c.lastAt))
	if dt > 0 {
		for _, m := range c.models {
			if u, ok := c.used[m]; ok {
				c.area[m] += float64(u * dt)
			}
		}
		for _, k := range c.tiers {
			c.tierArea[k] += float64(c.tierCap[k] * dt)
		}
		c.lastAt = at
	}
}

func (c *oracleCost) charge(model string, delta float64) {
	if model != "" || len(c.models) == 0 {
		if model != "" {
			c.addModel(model)
		}
		c.used[model] += delta
		return
	}
	total := 0.0
	for _, m := range c.models {
		total += c.cap[m]
	}
	if total <= 0 {
		c.used[c.models[0]] += delta
		return
	}
	for _, m := range c.models {
		c.used[m] += delta * c.cap[m] / total
	}
}

func (c *oracleCost) OnEvent(e Event) {
	switch e.Kind {
	case AllocSampled:
		if !c.started {
			c.started = true
			c.firstAt = e.At
			c.lastAt = e.At
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
		if e.Node == nil {
			return
		}
		c.integrateTo(e.At)
		c.addModel(e.Node.Model)
		gpus := float64(e.Node.Capacity())
		c.cap[e.Node.Model] += gpus
		k := oracleTierKey{tier: e.Tier, model: e.Node.Model}
		c.addTier(k)
		c.tierCap[k] += gpus
		c.tierProv[k]++
	case NodeRetired:
		if e.Node == nil {
			return
		}
		c.integrateTo(e.At)
		gpus := float64(e.Node.Capacity())
		if c.cap[e.Node.Model] -= gpus; c.cap[e.Node.Model] < 0 {
			c.cap[e.Node.Model] = 0
		}
		k := oracleTierKey{tier: e.Tier, model: e.Node.Model}
		c.addTier(k)
		if c.tierCap[k] -= gpus; c.tierCap[k] < 0 {
			c.tierCap[k] = 0
		}
		c.tierRet[k]++
	}
}

func (c *oracleCost) Finish(rep *Report) {
	ledger := &CostLedger{
		Margin:        pricing.DefaultSpotMargin,
		HoursPerMonth: pricing.HoursPerMonth,
	}
	span := float64(c.lastAt.Sub(c.firstAt))
	prices := pricing.DefaultTable()
	for _, m := range c.models {
		rate := 0.0
		if span > 0 && c.cap[m] > 0 {
			rate = c.area[m] / (c.cap[m] * span)
		}
		price := prices[m]
		pc := PoolCost{
			Model:           m,
			GPUs:            c.cap[m],
			BaselineRate:    c.baseline[m],
			Rate:            rate,
			PricePerGPUHour: price,
		}
		pc.MonthlyBenefitUSD = pricing.PoolBenefit(pc.GPUs, pc.Rate-pc.BaselineRate, price)
		ledger.MonthlyBenefitUSD += pc.MonthlyBenefitUSD
		ledger.Pools = append(ledger.Pools, pc)
	}
	keys := make([]oracleTierKey, 0, len(c.tierProv))
	for k := range c.tierProv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tier != keys[j].tier {
			return keys[i].tier < keys[j].tier
		}
		return keys[i].model < keys[j].model
	})
	for _, k := range keys {
		hours := c.tierArea[k] / 3600
		price := pricing.TierPrice(prices, k.model, k.tier)
		tc := TierCost{
			Tier:            k.tier,
			Model:           k.model,
			GPUHours:        hours,
			PricePerGPUHour: price,
			SpendUSD:        float64(hours * price),
			Provisioned:     c.tierProv[k],
			Retired:         c.tierRet[k],
		}
		ledger.TierSpendUSD += tc.SpendUSD
		ledger.Tiers = append(ledger.Tiers, tc)
	}
	rep.Cost = ledger
	if c.lastAt > rep.End {
		rep.End = c.lastAt
	}
}

// capScan is the in-test reference for the cost ledger's capacity
// integrals: each pool's capacity, stepped at NodeProvisioned and
// NodeRetired, integrated from the first AllocSampled tick to the
// latest event the ledger integrates at. churn notes whether the
// stream changed capacity at all.
type capScan struct {
	cap, area map[string]float64
	since     map[string]Time
	last      Time
	started   bool
	churn     bool
}

func (c *capScan) Name() string   { return "capscan" }
func (c *capScan) Finish(*Report) {}

func (c *capScan) Begin(meta RunMeta) {
	*c = capScan{cap: make(map[string]float64), area: make(map[string]float64), since: make(map[string]Time)}
	for _, p := range meta.Pools {
		c.cap[p.Model] += p.GPUs
	}
}

func (c *capScan) OnEvent(e Event) {
	step := 0.0
	switch e.Kind {
	case AllocSampled:
		if !c.started {
			c.started, c.last = true, e.At
			for m := range c.cap {
				c.since[m] = e.At
			}
			return
		}
	case TaskStarted, TaskEvicted, TaskFinished:
	case NodeProvisioned, NodeRetired:
		if e.Node == nil {
			return
		}
		c.churn = true
		step = float64(e.Node.Capacity())
		if e.Kind == NodeRetired {
			step = -step
		}
	default:
		return
	}
	if c.started && e.At > c.last {
		c.last = e.At
	}
	if step == 0 {
		return
	}
	m := e.Node.Model
	if c.started {
		c.area[m] += float64(c.cap[m] * float64(c.last.Sub(c.since[m])))
		c.since[m] = c.last
	}
	c.cap[m] = max(c.cap[m]+step, 0)
}

// integral is the model's capacity integral up to the latest event.
func (c *capScan) integral(m string) float64 {
	if !c.started {
		return 0
	}
	return c.area[m] + float64(c.cap[m]*float64(c.last.Sub(c.since[m])))
}

// oracleSet rides a run beside the live collectors: the old
// collectors, plus the unchanged eviction collector and the capacity
// scan, see the same events and finish into their own report, rep.
type oracleSet struct {
	cs   []Collector
	cost *oracleCost
	caps *capScan
	rep  *Report
}

func newOracleSet() *oracleSet {
	o := &oracleSet{cost: &oracleCost{}, caps: &capScan{}}
	o.cs = []Collector{&oracleSummary{}, &oracleOrgs{}, NewEvictionCollector(),
		&oracleQuota{}, &oracleTimeline{}, o.cost, o.caps}
	return o
}

// churnDiff checks the cost ledger of a stream that changed capacity,
// where the old ledger's rates were wrong: its tiers, its pools' end
// capacities and baselines must equal the old ledger's, and each
// pool's rate the reference ∫used ÷ ∫capacity, with ∫used taken from
// the old ledger and ∫capacity from the capacity scan. It returns ""
// when they hold.
func (o *oracleSet) churnDiff(got *CostLedger) string {
	want := o.rep.Cost
	if !reflect.DeepEqual(got.Tiers, want.Tiers) || got.TierSpendUSD != want.TierSpendUSD {
		return fmt.Sprintf("cost tiers differ:\n got: %+v\nwant: %+v", got.Tiers, want.Tiers)
	}
	if len(got.Pools) != len(want.Pools) {
		return fmt.Sprintf("cost pools differ:\n got: %+v\nwant: %+v", got.Pools, want.Pools)
	}
	for i, p := range got.Pools {
		w := want.Pools[i]
		rate := 0.0
		if c := o.caps.integral(w.Model); c > 0 {
			rate = o.cost.area[w.Model] / c
		}
		if p.Model != w.Model || p.GPUs != w.GPUs || p.BaselineRate != w.BaselineRate || p.Rate != rate ||
			p.MonthlyBenefitUSD != pricing.PoolBenefit(p.GPUs, rate-p.BaselineRate, p.PricePerGPUHour) {
			return fmt.Sprintf("cost pool %d: got %+v, want %+v at rate %v", i, p, w, rate)
		}
	}
	return ""
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
// reads at that instant. Every ninth task is pinned to an A10 or H800
// pool, which the run-start pools (syntheticMeta) do not list, so the
// cost ledger gains pools on both sides of A100. With churn, nodes of
// the three models are provisioned and retired after some tasks, and
// now and then a run-start A100 node is retired under a tier that
// never provisions.
func syntheticStream(rng *rand.Rand, n int, span int64, churn bool) []Event {
	models, tiers := []string{"A100", "A10", "H800"}, []string{"spot", "on-demand"}
	type live struct {
		node *Node
		tier string
	}
	var nodes []live
	var events []Event
	used := 0.0
	sample := func(at Time) {
		events = append(events, Event{Kind: AllocSampled, At: at, Used: used, Capacity: 4096})
	}
	submit := Time(0)
	for i := range n {
		tk := &Task{ID: i + 1, Org: fmt.Sprintf("org-%d", rng.IntN(7)), Pods: 1 + rng.IntN(4),
			GPUsPerPod: 1, Type: TaskType(rng.IntN(2)), Submit: submit}
		if i%9 == 4 {
			tk.GPUModel = models[1+rng.IntN(2)]
		}
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
		if churn {
			switch k := rng.IntN(16); {
			case k < 2:
				nd := live{NewCluster(models[rng.IntN(3)], 1, 8).Node(0), tiers[rng.IntN(2)]}
				nodes = append(nodes, nd)
				events = append(events, Event{Kind: NodeProvisioned, At: at, Node: nd.node, Tier: nd.tier})
			case k < 4 && len(nodes) > 0:
				j := rng.IntN(len(nodes))
				nd := nodes[j]
				nodes = append(nodes[:j], nodes[j+1:]...)
				events = append(events, Event{Kind: NodeRetired, At: at, Node: nd.node, Tier: nd.tier})
			case k == 4:
				events = append(events, Event{Kind: NodeRetired, At: at, Node: NewCluster("A100", 1, 8).Node(0), Tier: "reserved"})
			}
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
// second time. The summary collector's Orgs answer to the old org
// collector. On a stream that provisions or retires nodes the cost
// ledger's rates are checked by churnDiff instead, and the rest of
// the report against the oracles. Arms 0–2 are collectorRun's runs of
// 1 to 3,000 tasks; arm 3 is a synthetic stream whose waits and runs
// reach up to 2^52 seconds, where float sums of whole seconds stop
// being exact, so summing them in another order changes the means;
// arm 4 is a synthetic stream of ordinary spans with capacity churn.
// The seeds pass the first full 512-record and 1,024-point chunks in
// every arm.
func FuzzCollectors(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(40), uint8(1))
	f.Add(int64(3), uint16(300), uint8(2))
	f.Add(int64(17), uint16(1200), uint8(0))
	f.Add(int64(23), uint16(2999), uint8(1))
	f.Add(int64(5), uint16(2999), uint8(2))
	f.Add(int64(51), uint16(1500), uint8(3))
	f.Add(int64(9), uint16(1200), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, arm uint8) {
		var oracles []*oracleSet
		mk := func() []Collector {
			o := newOracleSet()
			oracles = append(oracles, o)
			return append(DefaultCollectors(), o)
		}
		var first []*Report
		var again func() []*Report
		if arm %= 5; arm >= 3 {
			rng := rand.New(rand.NewPCG(uint64(seed), 0))
			span := int64(1) << (1 + uint64(seed)%52)
			if arm == 4 {
				span = 1 + int64(uint64(seed)%3600)
			}
			events := syntheticStream(rng, 1+int(n)%3000, span, arm == 4)
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
			first, again = collectorRun(t, int(arm), collectorTrace(seed, 1+int(n)%3000), mk)
		}
		second := again()
		for i, o := range oracles {
			var want bytes.Buffer
			if err := o.rep.WriteJSONL(&want); err != nil {
				t.Fatal(err)
			}
			for round, rep := range []*Report{first[i], second[i]} {
				if o.caps.churn {
					if d := o.churnDiff(rep.Cost); d != "" {
						t.Fatalf("report %d, assembly %d: %s", i, round+1, d)
					}
					cp := *rep
					cp.Cost = o.rep.Cost
					rep = &cp
				}
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

// autoscaledStream records the event stream of a reactive autoscaled
// run over 10 A100 nodes, each event with its own copy of its task,
// and returns it with the run's meta.
func autoscaledStream(t *testing.T) (RunMeta, []Event) {
	t.Helper()
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
	return meta, events
}

// TestCollectorsBeginResets: Begin resets every built-in collector, so
// a collector set begun twice over one recorded stream reports the
// same both times, and a set begun again over an empty stream reports
// what a fresh set does. The stream is an autoscaled run's, so the
// cost collector's per-tier books are exercised.
func TestCollectorsBeginResets(t *testing.T) {
	meta, events := autoscaledStream(t)
	cs := DefaultCollectors()
	first := replayCollectors(cs, meta, events)
	if d := reportDiff(replayCollectors(cs, meta, events), first); d != "" {
		t.Fatalf("second Begin over the same stream: %s", d)
	}
	if d := reportDiff(replayCollectors(cs, meta, nil), replayCollectors(DefaultCollectors(), meta, nil)); d != "" {
		t.Fatalf("Begin again over an empty stream: %s", d)
	}
}

// TestCostRateIntegratesCapacity: a pool's rate is its usage integral
// over its capacity integral, so on an autoscaled run, whose capacity
// is provisioned and retired, it stays in (0, 1] and equals a scan of
// the recorded stream; a rate over the capacity at run end reads 1.353
// on this stream.
func TestCostRateIntegratesCapacity(t *testing.T) {
	meta, events := autoscaledStream(t)
	rep := replayCollectors([]Collector{NewCostCollector(nil)}, meta, events)
	if len(rep.Cost.Pools) != 1 {
		t.Fatalf("pools %+v, want the one A100 pool", rep.Cost.Pools)
	}
	// The scan: with one pool, every task charges its GPUs whole.
	used, capacity, usedArea, capArea := 0.0, meta.TotalGPUs, 0.0, 0.0
	var last Time
	started := false
	for _, e := range events {
		var dUsed, dCap float64
		switch e.Kind {
		case AllocSampled:
		case TaskStarted:
			dUsed = e.Task.TotalGPUs()
		case TaskEvicted, TaskFinished:
			dUsed = -e.Task.TotalGPUs()
		case NodeProvisioned:
			dCap = float64(e.Node.Capacity())
		case NodeRetired:
			dCap = -float64(e.Node.Capacity())
		default:
			continue
		}
		if started {
			dt := float64(e.At.Sub(last))
			usedArea += float64(used * dt)
			capArea += float64(capacity * dt)
			last = e.At
		} else if e.Kind == AllocSampled {
			started, last = true, e.At
		}
		used += dUsed
		capacity = max(capacity+dCap, 0)
	}
	want := usedArea / capArea
	if got := rep.Cost.Pools[0].Rate; got <= 0 || got > 1 || got != want {
		t.Fatalf("rate %v, want %v = %v GPU-s used / %v GPU-s capacity", got, want, usedArea, capArea)
	}
}

// TestCollectorAllocsPerTask: the built-in collectors' allocations over
// a 10,000-task stream are bounded by a constant far below one per
// task, since records and points are stored in chunks (a heap record
// per task and regrown slices took 20,783) and one tally serves the
// summary and org sections (two took 356). The ceiling is 2 % above
// the 228 measured when it was set.
func TestCollectorAllocsPerTask(t *testing.T) {
	const tasks, ceiling = 10000, 232
	events := syntheticStream(rand.New(rand.NewPCG(1, 0)), tasks, 600, false)
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
