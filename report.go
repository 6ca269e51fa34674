package gfs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/sjtucitlab/gfs/internal/jsonenc"
)

// This file defines the Report type — the structured output of a
// collected run — and its sections. Reports are produced by the
// collectors of collector.go (see Engine.RunReport and
// WithFederationCollectors) and exported by report_export.go.

// QuotaValue is a spot quota in GPUs that may be unlimited (+Inf,
// the value runs without a quota policy report). Unlike a raw
// float64, it JSON-encodes the unlimited case as the string
// "unlimited" instead of failing to marshal, which keeps report
// exports valid for every engine configuration.
type QuotaValue float64

// unlimited reports whether the quota imposes no bound.
func (q QuotaValue) unlimited() bool { return math.IsInf(float64(q), 1) }

// MarshalJSON implements json.Marshaler: "unlimited" for an
// unbounded quota, null for non-finite garbage, a number otherwise.
func (q QuotaValue) MarshalJSON() ([]byte, error) { return q.appendJSON(nil), nil }

// appendJSON appends MarshalJSON's bytes.
func (q QuotaValue) appendJSON(dst []byte) []byte {
	switch f := float64(q); {
	case q.unlimited():
		return append(dst, `"unlimited"`...)
	case math.IsInf(f, -1) || math.IsNaN(f):
		return append(dst, `null`...)
	default:
		return jsonenc.AppendFloat(dst, f)
	}
}

// UnmarshalJSON implements json.Unmarshaler, accepting the forms
// MarshalJSON produces.
func (q *QuotaValue) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"unlimited"`:
		*q = QuotaValue(math.Inf(1))
		return nil
	case `null`:
		*q = QuotaValue(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*q = QuotaValue(f)
	return nil
}

// String implements fmt.Stringer.
func (q QuotaValue) String() string {
	if q.unlimited() {
		return "unlimited"
	}
	return fmt.Sprintf("%g", float64(q))
}

// ClassMetrics summarizes one task class (HP or spot) of a collected
// run: completion-time and queue-wait percentiles, eviction counts
// and the useful GPU-seconds executed. All times are seconds of
// simulated time.
type ClassMetrics struct {
	// Count is the number of tasks of this class that arrived.
	Count int `json:"count"`
	// Finished and Unfinished split Count by final state.
	Finished   int `json:"finished"`
	Unfinished int `json:"unfinished"`
	// JCT (job completion time) statistics cover finished tasks.
	JCTMean float64 `json:"jct_mean_s"`
	JCTP50  float64 `json:"jct_p50_s"`
	JCTP95  float64 `json:"jct_p95_s"`
	JCTP99  float64 `json:"jct_p99_s"`
	// Queue-wait statistics cover every task's cumulative closed
	// queue segments (the paper's JQT).
	QueueMean float64 `json:"queue_mean_s"`
	QueueP50  float64 `json:"queue_p50_s"`
	QueueP95  float64 `json:"queue_p95_s"`
	QueueP99  float64 `json:"queue_p99_s"`
	QueueMax  float64 `json:"queue_max_s"`
	// Evictions counts eviction events; Runs counts run attempts
	// (evictions plus completions); EvictionRate = Evictions/Runs.
	Evictions    int     `json:"evictions"`
	Runs         int     `json:"runs"`
	EvictionRate float64 `json:"eviction_rate"`
	// GPUSeconds is the GPU time the class actually held.
	GPUSeconds float64 `json:"gpu_seconds"`
}

// Summary is the whole-run section of a Report: the same scalars the
// legacy Result carries, computed from the event spine by the summary
// collector.
type Summary struct {
	// Scheduler names the placement scheduler of the run.
	Scheduler string `json:"scheduler"`
	// End is the simulated time of the last event.
	End Time `json:"end"`
	// HP and Spot summarize the two task classes.
	HP   ClassMetrics `json:"hp"`
	Spot ClassMetrics `json:"spot"`
	// AllocationRate is the time-averaged GPU allocation rate.
	AllocationRate float64 `json:"allocation_rate"`
	// WastedGPUSeconds accumulates Eq. 17 waste over all evictions.
	WastedGPUSeconds float64 `json:"wasted_gpu_seconds"`
	// FinalQuota is the spot quota at the end of the run.
	FinalQuota QuotaValue `json:"final_quota"`
}

// EvictionCounts breaks evictions down by cause: scheduler
// preemption (an HP placement took the GPUs), node failure, spot
// reclamation, and node drain.
type EvictionCounts struct {
	Preempted   int `json:"preempted"`
	NodeFailure int `json:"node_failure"`
	Reclaimed   int `json:"reclaimed"`
	Drained     int `json:"drained"`
}

// total returns the sum over all causes.
func (c EvictionCounts) total() int {
	return c.Preempted + c.NodeFailure + c.Reclaimed + c.Drained
}

// add increments the bucket for one cause.
func (c *EvictionCounts) add(cause EvictCause) {
	switch cause {
	case CausePreempted:
		c.Preempted++
	case CauseNodeFailure:
		c.NodeFailure++
	case CauseReclaimed:
		c.Reclaimed++
	case CauseDrained:
		c.Drained++
	}
}

// OrgMetrics is one organization's slice of a collected run: its
// per-class task metrics, eviction causes and GPU time.
type OrgMetrics struct {
	// Org is the organization name; tasks without one group under
	// "" (rendered as "(none)" in text output).
	Org string `json:"org"`
	// HP and Spot summarize the organization's two task classes.
	HP   ClassMetrics `json:"hp"`
	Spot ClassMetrics `json:"spot"`
	// Evictions breaks the organization's evictions down by cause.
	Evictions EvictionCounts `json:"evictions"`
	// GPUSeconds is the GPU time the organization's tasks held.
	GPUSeconds float64 `json:"gpu_seconds"`
}

// EvictionBreakdown is the cluster-wide eviction section of a
// Report: counts by cause, split by task class, with the wasted
// GPU-seconds each cause inflicted.
type EvictionBreakdown struct {
	// Total counts all eviction events.
	Total int `json:"total"`
	// HP and Spot break the total down by victim class and cause.
	HP   EvictionCounts `json:"hp"`
	Spot EvictionCounts `json:"spot"`
	// WastedGPUSeconds attributes Eq. 17 waste to each cause, in
	// the EvictionCounts field order.
	WastePreempted   float64 `json:"waste_preempted_gpu_s"`
	WasteNodeFailure float64 `json:"waste_node_failure_gpu_s"`
	WasteReclaimed   float64 `json:"waste_reclaimed_gpu_s"`
	WasteDrained     float64 `json:"waste_drained_gpu_s"`
}

// QuotaSample is one quota tick of a collected run.
type QuotaSample struct {
	// At is the tick's simulated time.
	At Time `json:"at"`
	// Member names the federation member the tick belongs to; empty
	// outside federation aggregate streams.
	Member string `json:"member,omitempty"`
	// Quota is the spot quota the policy set.
	Quota QuotaValue `json:"quota"`
	// SpotUsed is the spot GPU usage the quota constrains.
	SpotUsed float64 `json:"spot_used"`
	// Eta is the policy's safety coefficient, when reported (the
	// Eq. 11 feedback state); 0 otherwise.
	Eta float64 `json:"eta,omitempty"`
}

// QuotaTrajectory is the quota-vs-usage section of a Report: the
// full tick series plus the tracking error of the feedback loop.
type QuotaTrajectory struct {
	// Samples holds every quota tick in time order.
	Samples []QuotaSample `json:"samples"`
	// MeanAbsError and MaxAbsError measure |quota − spot usage| in
	// GPUs over the finite-quota ticks — how closely the η feedback
	// loop tracks its target (§3.3).
	MeanAbsError float64 `json:"mean_abs_error_gpus"`
	MaxAbsError  float64 `json:"max_abs_error_gpus"`
	// FinalEta is the safety coefficient after the last tick.
	FinalEta float64 `json:"final_eta,omitempty"`
}

// AllocPoint is one step of the allocation timeline.
type AllocPoint struct {
	// At is the observation's simulated time.
	At Time `json:"at"`
	// Member names the federation member the step belongs to; empty
	// outside federation aggregate streams.
	Member string `json:"member,omitempty"`
	// Used and Capacity are GPUs in use and schedulable capacity.
	Used     float64 `json:"used"`
	Capacity float64 `json:"capacity"`
	// Rate is Used/Capacity (0 on a zero-capacity cluster).
	Rate float64 `json:"rate"`
}

// PoolCost prices one GPU pool's allocation in the cost ledger.
type PoolCost struct {
	// Model is the pool's GPU model.
	Model string `json:"model"`
	// GPUs is the pool's capacity.
	GPUs float64 `json:"gpus"`
	// BaselineRate and Rate are the allocation rates priced: the
	// pre-deployment reference and the collected run's achieved
	// rate.
	BaselineRate float64 `json:"baseline_rate"`
	Rate         float64 `json:"rate"`
	// PricePerGPUHour is the on-demand list price used.
	PricePerGPUHour float64 `json:"price_per_gpu_hour"`
	// MonthlyBenefitUSD prices the rate improvement:
	// GPUs × (Rate − BaselineRate) × price × 730 h × margin.
	MonthlyBenefitUSD float64 `json:"monthly_benefit_usd"`
}

// TierCost prices the autoscaled capacity bought in one (tier,
// model) bucket: the GPU-hours billed between NodeProvisioned and
// NodeRetired events, at the tier-adjusted hourly price.
type TierCost struct {
	// Tier is the capacity tier ("spot", "on-demand", "reserved").
	Tier string `json:"tier"`
	// Model is the GPU model provisioned.
	Model string `json:"model"`
	// GPUHours is the capacity-hours billed in this bucket.
	GPUHours float64 `json:"gpu_hours"`
	// PricePerGPUHour is the tier-adjusted hourly price applied.
	PricePerGPUHour float64 `json:"price_per_gpu_hour"`
	// SpendUSD is GPUHours × PricePerGPUHour.
	SpendUSD float64 `json:"spend_usd"`
	// Provisioned and Retired count node deliveries and retirements.
	Provisioned int `json:"provisioned"`
	Retired     int `json:"retired"`
}

// CostLedger is the pricing section of a Report, reproducing the
// paper's monthly-benefit accounting (§4.3, Fig. 9): each pool's
// allocation-rate improvement over a baseline, priced at cloud list
// prices under a spot realization margin. Runs with an autoscaler
// additionally carry the per-tier spend on provisioned capacity.
type CostLedger struct {
	// Pools holds one priced entry per GPU model, sorted by model.
	Pools []PoolCost `json:"pools"`
	// MonthlyBenefitUSD totals the pool benefits.
	MonthlyBenefitUSD float64 `json:"monthly_benefit_usd"`
	// Margin is the spot realization margin applied.
	Margin float64 `json:"margin"`
	// HoursPerMonth is the billing convention used (730 h).
	HoursPerMonth float64 `json:"hours_per_month"`
	// Tiers attributes autoscaled capacity per (tier, model), sorted
	// by tier then model; empty without capacity churn.
	Tiers []TierCost `json:"tiers,omitempty"`
	// TierSpendUSD totals the tier spends.
	TierSpendUSD float64 `json:"tier_spend_usd,omitempty"`
}

// CustomSection carries a user collector's contribution to a Report.
// Value must be JSON-marshalable for the JSONL export.
type CustomSection struct {
	// Name identifies the section (the collector's Name).
	Name string `json:"name"`
	// Value is the section payload.
	Value any `json:"value"`
}

// Report is the structured output of a collected run: one section
// per collector, exportable as JSONL, CSV or a Prometheus-style text
// snapshot (report_export.go). Reports are plain data — safe to
// marshal, diff and aggregate; byte-identical across RunBatch worker
// counts for deterministic runs.
type Report struct {
	// Scheduler names the run's placement scheduler.
	Scheduler string `json:"scheduler"`
	// End is the simulated time of the last event.
	End Time `json:"end"`
	// Summary is the whole-run scalar section (summary collector).
	Summary *Summary `json:"summary,omitempty"`
	// Orgs holds per-organization metrics sorted by name (org
	// collector).
	Orgs []OrgMetrics `json:"orgs,omitempty"`
	// Evictions is the cause breakdown (eviction collector).
	Evictions *EvictionBreakdown `json:"evictions,omitempty"`
	// Quota is the quota-vs-usage trajectory (quota collector).
	Quota *QuotaTrajectory `json:"quota,omitempty"`
	// Timeline is the allocation trajectory (allocation collector).
	Timeline []AllocPoint `json:"timeline,omitempty"`
	// Cost is the pricing ledger (cost collector).
	Cost *CostLedger `json:"cost,omitempty"`
	// Sections holds custom collectors' contributions, in collector
	// registration order.
	Sections []CustomSection `json:"sections,omitempty"`
}

// String renders the report as a human-readable text snapshot, the
// gfsim -report text format.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "report: scheduler=%s end=%ds\n", r.Scheduler, int64(r.End))
	if s := r.Summary; s != nil {
		fmt.Fprintf(&b, "summary: alloc %.2f%%  waste %.1f GPU-h  quota %s\n",
			100*s.AllocationRate, s.WastedGPUSeconds/3600, s.FinalQuota)
		for _, c := range []struct {
			name string
			m    ClassMetrics
		}{{"hp", s.HP}, {"spot", s.Spot}} {
			fmt.Fprintf(&b, "  %-4s n=%d fin=%d  jct p50/p95/p99 %.0f/%.0f/%.0f s  queue p50/p99/max %.0f/%.0f/%.0f s  evict %d (e=%.2f%%)\n",
				c.name, c.m.Count, c.m.Finished, c.m.JCTP50, c.m.JCTP95, c.m.JCTP99,
				c.m.QueueP50, c.m.QueueP99, c.m.QueueMax, c.m.Evictions, 100*c.m.EvictionRate)
		}
	}
	if e := r.Evictions; e != nil {
		fmt.Fprintf(&b, "evictions: total %d  preempted %d  node-failure %d  reclaimed %d  drained %d\n",
			e.Total, e.HP.Preempted+e.Spot.Preempted, e.HP.NodeFailure+e.Spot.NodeFailure,
			e.HP.Reclaimed+e.Spot.Reclaimed, e.HP.Drained+e.Spot.Drained)
	}
	if q := r.Quota; q != nil {
		fmt.Fprintf(&b, "quota: %d ticks  tracking error mean %.1f / max %.1f GPUs  final η %.3f\n",
			len(q.Samples), q.MeanAbsError, q.MaxAbsError, q.FinalEta)
	}
	if len(r.Timeline) > 0 {
		fmt.Fprintf(&b, "timeline: %d allocation points\n", len(r.Timeline))
	}
	for _, o := range r.Orgs {
		name := o.Org
		if name == "" {
			name = "(none)"
		}
		fmt.Fprintf(&b, "org %-8s hp=%d spot=%d  gpu-h %.1f  evictions %d\n",
			name, o.HP.Count, o.Spot.Count, o.GPUSeconds/3600, o.Evictions.total())
	}
	if c := r.Cost; c != nil {
		for _, p := range c.Pools {
			fmt.Fprintf(&b, "cost %-6s %5.0f GPUs  %.2f%% → %.2f%%  $%.0f/month\n",
				p.Model, p.GPUs, 100*p.BaselineRate, 100*p.Rate, p.MonthlyBenefitUSD)
		}
		for _, t := range c.Tiers {
			fmt.Fprintf(&b, "tier %-9s %-6s %8.1f GPU-h  $%.2f/GPU-h  prov %d ret %d  $%.0f\n",
				t.Tier, t.Model, t.GPUHours, t.PricePerGPUHour, t.Provisioned, t.Retired, t.SpendUSD)
		}
		if len(c.Tiers) > 0 {
			fmt.Fprintf(&b, "tier spend total: $%.0f\n", c.TierSpendUSD)
		}
		fmt.Fprintf(&b, "cost total: $%.0f/month (margin %.0f%%)\n", c.MonthlyBenefitUSD, 100*c.Margin)
	}
	return b.String()
}

// FederationReport is the collected output of a federated run: one
// aggregate report over the shared event stream plus one report per
// member, with the federation-level migration counters.
type FederationReport struct {
	// Aggregate covers the whole federation (member-tagged events
	// deduplicated by task).
	Aggregate *Report `json:"aggregate"`
	// Members holds per-member reports in federation order.
	Members []MemberReport `json:"members"`
	// Migrations counts delivered spillover migrations.
	Migrations int `json:"migrations"`
	// Saturations counts ClusterSaturated occurrences.
	Saturations int `json:"saturations"`
}

// MemberReport pairs a member name with its report.
type MemberReport struct {
	// Name is the member's federation name.
	Name string `json:"name"`
	// Report is the member's collected report.
	Report *Report `json:"report"`
}

// String renders the federation report as a text snapshot.
func (f *FederationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "federation report: %d migrations, %d saturations\n", f.Migrations, f.Saturations)
	if f.Aggregate != nil {
		b.WriteString("== aggregate ==\n")
		b.WriteString(f.Aggregate.String())
	}
	for _, m := range f.Members {
		fmt.Fprintf(&b, "== member %s ==\n", m.Name)
		b.WriteString(m.Report.String())
	}
	return b.String()
}
