// Package autoscale closes the paper's forecast→capacity loop: a
// per-tick capacity controller that consumes the same per-organization
// demand history the GPU Demand Estimator (§3.2) trains on and
// provisions or retires nodes mid-run through the simulator's
// global-sequence event path. Capacity is bought across multi-tier
// pools (spot → on-demand → reserved, priced by internal/pricing),
// scale-ups are confidence-thresholded on the forecast's upper
// quantile, pre-warm lead times stretch with the diurnal activity
// curve (capacity markets are tightest at peak hours), and idle nodes
// scale down after a grace period, draining rather than stranding
// their tasks.
package autoscale

import (
	"fmt"
	"math"
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// Mode selects how the policy estimates upcoming demand.
type Mode string

const (
	// ModeReactive sizes capacity from observed demand only: GPUs in
	// use plus the pending queue at each tick.
	ModeReactive Mode = "reactive"
	// ModePredictive additionally forecasts HP demand per
	// organization (GDE when an estimator is fitted, a deterministic
	// seasonal-naive fallback otherwise) and provisions toward the
	// forecast's upper confidence quantile, so capacity lands before
	// the demand does.
	ModePredictive Mode = "predictive"
)

// ParseMode resolves a mode name, rejecting unknown values.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeReactive, ModePredictive:
		return Mode(s), nil
	}
	return "", fmt.Errorf("autoscale: unknown mode %q (want %q or %q)", s, ModeReactive, ModePredictive)
}

// The operating point every policy runs at: the pools it buys, the
// utilization it steers to, and its lead and grace times.
const (
	// model is the GPU model of provisioned pools.
	model = "A100"
	// gpusPerNode sizes provisioned nodes.
	gpusPerNode = 8
	// targetUtilization is the demand/capacity ratio the controller
	// steers to: it scales up when demand would exceed target×capacity
	// and down when idle capacity keeps utilization below it.
	targetUtilization = 0.8
	// preWarm is the base provisioning lead time.
	preWarm = 10 * simclock.Minute
	// idleAfter is the grace a node must stay fully idle before it is
	// retired.
	idleAfter = 30 * simclock.Minute
)

// tierQuota caps how many autoscaled nodes one capacity tier may
// hold. A policy's tiers are tried in slice order, so listing spot
// first buys the cheapest capacity first.
type tierQuota struct {
	tier     string
	maxNodes int
}

// defaultTiers returns the spot → on-demand → reserved preference
// ladder: half the budget interruptible, a quarter on-demand, and
// reserved absorbing whatever overflow the total cap still allows.
func defaultTiers(maxNodes int) []tierQuota {
	return []tierQuota{
		{tier: pricing.TierSpot, maxNodes: (maxNodes + 1) / 2},
		{tier: pricing.TierOnDemand, maxNodes: (maxNodes + 3) / 4},
		{tier: pricing.TierReserved, maxNodes: maxNodes},
	}
}

// Policy is the built-in sched.Autoscaler. The zero value is not
// ready; fill Mode (everything else defaults sensibly) and hand a
// fresh Policy to each run — Plan keeps per-run state (idle timers,
// in-flight provisions), so sharing one across runs leaks decisions
// between them.
type Policy struct {
	// Mode picks reactive or predictive demand estimation.
	Mode Mode
	// MaxNodes caps total live autoscaled nodes (default 64).
	MaxNodes int
	// Step caps nodes provisioned or retired per tick (default 4).
	Step int
	// Confidence is the forecast quantile a predictive scale-up
	// provisions toward, in (0,1) (default 0.9).
	Confidence float64
	// Curve, when set, stretches the pre-warm lead with the diurnal
	// activity weight — at peak hours a provision takes up to twice
	// the base lead to deliver.
	Curve *timefeat.DiurnalCurve
	// Estimator, when fitted, serves the predictive forecasts; nil
	// (or unfitted) falls back to a deterministic seasonal-naive
	// forecast over the live demand history.
	Estimator *gde.Estimator

	// tiers is the per-tier budget ladder, tried in order; empty
	// takes defaultTiers(MaxNodes).
	tiers []tierQuota
	// target is the utilization target; zero takes targetUtilization.
	target float64

	initDone  bool
	idleSince map[int]simclock.Time
	pending   []pendingProv
	memo      gde.Memo // the fitted Estimator's forecasts, once per hour
}

// pendingProv tracks one ordered-but-undelivered provision so the
// controller does not re-order capacity already in flight.
type pendingProv struct {
	at    simclock.Time
	nodes int
	tier  string
}

func (p *Policy) init() {
	if p.initDone {
		return
	}
	p.initDone = true
	if p.MaxNodes <= 0 {
		p.MaxNodes = 64
	}
	if p.Step <= 0 {
		p.Step = 4
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		p.Confidence = 0.9
	}
	if p.target <= 0 {
		p.target = targetUtilization
	}
	if len(p.tiers) == 0 {
		p.tiers = defaultTiers(p.MaxNodes)
	}
	if p.idleSince == nil {
		p.idleSince = make(map[int]simclock.Time)
	}
}

// Plan implements sched.Autoscaler: one control decision per quota
// tick, deterministic in the sequence of contexts observed.
func (p *Policy) Plan(ctx *sched.AutoscaleContext) sched.AutoscalePlan {
	p.init()
	now := ctx.Now

	// In-flight provisions: anything due by now has been delivered
	// (provision events sort before the tick that ordered them plus
	// one interval), so only strictly-future entries still count.
	kept := p.pending[:0]
	pendNodes := 0
	pendByTier := make(map[string]int)
	for _, pr := range p.pending {
		if pr.at > now {
			kept = append(kept, pr)
			pendNodes += pr.nodes
			pendByTier[pr.tier] += pr.nodes
		}
	}
	p.pending = kept

	activeNodes := 0
	activeByTier := make(map[string]int)
	for _, n := range ctx.Cluster.Nodes() {
		if n.Tier == "" || !n.Schedulable() {
			continue
		}
		activeNodes++
		activeByTier[n.Tier]++
	}

	// Demand is guaranteed (HP) work only — running plus queued.
	// Spot usage expands to fill whatever capacity exists, so counting
	// it would make every purchase justify the next one; instead spot
	// harvests the headroom the capacity target leaves open.
	capacity := ctx.Cluster.TotalGPUs("")
	demand := ctx.Cluster.HPGPUs("") + ctx.PendingGPUs
	target := p.target
	// The observed-demand target keeps utilization at the target;
	// the forecast's upper quantile is a capacity target in its own
	// right (the confidence margin already is the headroom), so it is
	// not divided by target again.
	need := demand / target
	if p.Mode == ModePredictive {
		if q := p.forecastUpper(ctx); q > need {
			need = q
		}
	}
	// Capacity already bought but still pre-warming counts toward the
	// target, otherwise every tick inside the lead re-buys the gap.
	effCap := capacity + float64(pendNodes*gpusPerNode)
	gap := need - effCap

	var plan sched.AutoscalePlan
	if gap > 0 {
		nodes := int(math.Ceil(gap / gpusPerNode))
		if nodes > p.Step {
			nodes = p.Step
		}
		if room := p.MaxNodes - activeNodes - pendNodes; nodes > room {
			nodes = room
		}
		lead := p.lead(now)
		for _, tq := range p.tiers {
			if nodes <= 0 {
				break
			}
			room := tq.maxNodes - activeByTier[tq.tier] - pendByTier[tq.tier]
			if room <= 0 {
				continue
			}
			take := nodes
			if take > room {
				take = room
			}
			plan.Provisions = append(plan.Provisions, sched.Provision{
				Pool: cluster.Pool{Model: model, Nodes: take, GPUsPerNode: gpusPerNode, Tier: tq.tier},
				Lead: lead,
			})
			p.pending = append(p.pending, pendingProv{at: now.Add(lead), nodes: take, tier: tq.tier})
			nodes -= take
		}
	}

	// Idle bookkeeping runs every tick; retirement only when no
	// scale-up is in progress and surplus survives the removal. A node
	// is idle when it holds no guaranteed work — spot riders drain
	// (with eviction) when the node retires, they do not pin it.
	retiredGPUs := 0.0
	for _, n := range ctx.Cluster.Nodes() {
		if n.Tier == "" || !n.Schedulable() || n.HPGPUs() > 0 {
			delete(p.idleSince, n.ID)
			continue
		}
		since, ok := p.idleSince[n.ID]
		if !ok {
			p.idleSince[n.ID] = now
			continue
		}
		if gap > 0 || len(plan.Retire) >= p.Step {
			continue
		}
		if now.Sub(since) < idleAfter {
			continue
		}
		nc := float64(n.Capacity())
		if effCap-retiredGPUs-nc < need {
			continue
		}
		plan.Retire = append(plan.Retire, n.ID)
		retiredGPUs += nc
		delete(p.idleSince, n.ID)
	}
	return plan
}

// lead returns the pre-warm delay for a provision ordered at now:
// preWarm stretched by the diurnal activity weight when a curve is
// configured.
func (p *Policy) lead(now simclock.Time) simclock.Duration {
	lead := preWarm
	if p.Curve != nil {
		w := p.Curve.WeightAt(now)
		lead = simclock.Duration(float64(lead) * (1 + w))
	}
	return lead
}

// forecastUpper returns the cluster's upper-quantile HP demand
// forecast for the near horizon: per-organization forecasts (GDE when
// fitted, the seasonal-naive fallback otherwise) aggregated per
// horizon step as Σμ + z·√(Σσ²) — organizations fluctuate
// independently, so summing their individual quantiles would price
// perfectly-correlated worst cases into every scale-up — and maxed
// over the steps. Organizations are visited in sorted name order so
// the float accumulation is deterministic. GDE forecasts are computed
// once per hour, when the demand series gain their next value, and
// read from the policy's memo at the ticks in between.
func (p *Policy) forecastUpper(ctx *sched.AutoscaleContext) float64 {
	if len(ctx.OrgDemand) == 0 {
		return 0
	}
	z := stats.NormICDF(p.Confidence)
	var mus, vars []float64
	add := func(i int, mu, sigma float64) {
		for len(mus) <= i {
			mus = append(mus, 0)
			vars = append(vars, 0)
		}
		if mu > 0 {
			mus[i] += mu
		}
		vars[i] += float64(sigma * sigma)
	}
	if p.Estimator != nil && p.Estimator.Fitted() {
		for _, f := range p.memo.Forecasts(p.Estimator, ctx.OrgDemand, ctx.HourIndex) {
			if len(ctx.OrgDemand[f.Org]) == 0 {
				continue
			}
			for i := range f.Mu {
				add(i, f.Mu[i], f.Sigma[i])
			}
		}
	} else {
		orgs := make([]string, 0, len(ctx.OrgDemand))
		for org := range ctx.OrgDemand {
			orgs = append(orgs, org)
		}
		sort.Strings(orgs)
		for _, org := range orgs {
			if hist := ctx.OrgDemand[org]; len(hist) > 0 {
				mu, sigma := seasonalNaive(hist)
				add(0, mu, sigma)
			}
		}
	}
	upper := 0.0
	for i := range mus {
		if u := mus[i] + float64(z*math.Sqrt(vars[i])); u > upper {
			upper = u
		}
	}
	return upper
}

// seasonalNaive is the estimator-free fallback forecast: the value
// one day earlier (or the latest value while the history is shorter
// than a day), with the mean absolute seasonal residual — how far
// today strayed from yesterday at the same hours — as spread. Using
// the predictor's own residuals rather than the raw diurnal swing
// keeps the upper quantile from pricing the whole daily amplitude
// into every scale-up decision.
func seasonalNaive(hist []float64) (mu, sigma float64) {
	n := len(hist)
	mu = hist[n-1]
	if n >= 24 {
		mu = hist[n-24]
	}
	if n >= 25 {
		lo := n - 24
		if lo < 24 {
			lo = 24
		}
		for i := lo; i < n; i++ {
			sigma += math.Abs(hist[i] - hist[i-24])
		}
		sigma /= float64(n - lo)
		return mu, sigma
	}
	// Under a day of history: fall back to the deviation around the
	// observed mean.
	mean := 0.0
	for _, v := range hist {
		mean += v
	}
	mean /= float64(n)
	for _, v := range hist {
		sigma += math.Abs(v - mean)
	}
	sigma /= float64(n)
	return mu, sigma
}
