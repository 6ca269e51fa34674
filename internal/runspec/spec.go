// Package runspec is the one description of a simulation run and the
// one path from that description to an executed engine: gfsim lowers
// its flags onto a Spec, gfsd decodes one from a session request, and
// both hand it to Build and Built.Run. A new knob therefore lands in
// exactly one place — a Spec field, its validation, and its option in
// Build — and the CLI and the daemon cannot drift apart. The package
// is free of net/http; internal/service layers the HTTP transport on
// top.
package runspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/autoscale"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
)

// Spec describes one simulation run: the JSON body of a gfsd POST
// /v1/sessions (or its query parameters when the body is a trace
// upload) and the value gfsim lowers its flags onto. Zero fields take
// the defaults Normalize fills, so an empty spec runs the reactive GFS
// stack over the generated small-scale workload.
type Spec struct {
	// Scheduler picks the scheduling stack: gfs (reactive PTS+SQA,
	// the default), yarn, chronus, lyra, fgd or firstfit. The
	// trained GFS variants need an estimator fitted offline, so a
	// spec names the reactive stack (the one federation members run);
	// gfsim passes its trained variants to Build as extra options.
	Scheduler string `json:"scheduler,omitempty"`
	// Nodes and GPUsPerNode size the cluster (defaults 16 × 8).
	Nodes       int `json:"nodes,omitempty"`
	GPUsPerNode int `json:"gpus_per_node,omitempty"`
	// Days spans the generated workload (default 1); ignored when a
	// trace is attached.
	Days int `json:"days,omitempty"`
	// SpotScale multiplies generated spot submissions (default 1).
	SpotScale float64 `json:"spot_scale,omitempty"`
	// Seed seeds the generated workload (default 17).
	Seed int64 `json:"seed,omitempty"`
	// Scenario names a storm profile (rack-failure, zone-cascade,
	// diurnal-storm, random-storms); empty runs calm.
	Scenario string `json:"scenario,omitempty"`
	// Federation runs the two-member federation (west = Scenario,
	// east calm) instead of a single cluster; Route picks the
	// admission policy (least-loaded, cheapest-spot, forecast-aware,
	// round-robin).
	Federation bool   `json:"federation,omitempty"`
	Route      string `json:"route,omitempty"`
	// Autoscale attaches the built-in capacity autoscaler to the run
	// (single-cluster sessions only): nodes are provisioned and
	// retired mid-run across the spot → on-demand → reserved tier
	// ladder, and the report's cost ledger gains per-tier spend.
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// Tasks is an optional inline trace: JSONL task records (the
	// gfstrace JSONL schema) as raw JSON objects, sorted by the
	// server before replay. Tasks are consumed at submission and
	// never echoed back; session status reports TraceTasks instead.
	Tasks []json.RawMessage `json:"tasks,omitempty"`
	// TraceTasks and TraceBytes describe the attached trace in
	// gfsd session status responses; set by the server, never by
	// clients.
	TraceTasks int   `json:"trace_tasks,omitempty"`
	TraceBytes int64 `json:"trace_bytes,omitempty"`
}

// AutoscaleSpec is the JSON shape of Spec.Autoscale: the knobs of
// the built-in gfs.AutoscalePolicy a session may set. Zero fields
// take the policy defaults; only Mode is required.
type AutoscaleSpec struct {
	// Mode picks the policy: "predictive" (forecast-driven) or
	// "reactive" (observed demand only).
	Mode string `json:"mode"`
	// Model is the GPU model of provisioned pools (default A100).
	Model string `json:"model,omitempty"`
	// GPUsPerNode sizes provisioned nodes (default 8).
	GPUsPerNode int `json:"gpus_per_node,omitempty"`
	// MaxNodes caps total live autoscaled nodes (default 64).
	MaxNodes int `json:"max_nodes,omitempty"`
	// Step caps nodes provisioned or retired per tick (default 4).
	Step int `json:"step,omitempty"`
	// Confidence is the forecast quantile predictive scale-ups
	// provision toward, in (0,1) (default 0.9).
	Confidence float64 `json:"confidence,omitempty"`
	// TargetUtilization is the demand/capacity ratio the controller
	// steers to, in (0,1] (default 0.8).
	TargetUtilization float64 `json:"target_utilization,omitempty"`
	// PreWarmS is the base provisioning lead in simulated seconds
	// (default 600).
	PreWarmS float64 `json:"pre_warm_s,omitempty"`
	// IdleAfterS is the idle grace before retirement in simulated
	// seconds (default 1800).
	IdleAfterS float64 `json:"idle_after_s,omitempty"`
	// Tiers overrides the per-tier budget ladder, tried in order;
	// empty takes the default spot → on-demand → reserved split.
	Tiers []AutoscaleTierSpec `json:"tiers,omitempty"`
}

// AutoscaleTierSpec caps one capacity tier in an AutoscaleSpec's
// preference ladder.
type AutoscaleTierSpec struct {
	// Tier names the capacity tier: spot, on-demand or reserved.
	Tier string `json:"tier"`
	// MaxNodes bounds the autoscaled nodes in this tier.
	MaxNodes int `json:"max_nodes"`
}

// validate rejects malformed autoscale specs with field-level errors:
// unknown modes and tiers, non-finite numbers, negative leads and
// out-of-range ratios must never reach the policy.
func (a *AutoscaleSpec) validate() error {
	if _, err := autoscale.ParseMode(a.Mode); err != nil {
		return fmt.Errorf("autoscale.mode: %w", err)
	}
	if a.GPUsPerNode < 0 || a.GPUsPerNode > maxGPUsPerNode {
		return fmt.Errorf("autoscale.gpus_per_node must be in [0, %d], got %d", maxGPUsPerNode, a.GPUsPerNode)
	}
	if a.MaxNodes < 0 || a.MaxNodes > maxNodes {
		return fmt.Errorf("autoscale.max_nodes must be in [0, %d], got %d", maxNodes, a.MaxNodes)
	}
	if a.Step < 0 || a.Step > maxNodes {
		return fmt.Errorf("autoscale.step must be in [0, %d], got %d", maxNodes, a.Step)
	}
	if math.IsNaN(a.Confidence) || a.Confidence < 0 || a.Confidence >= 1 {
		return fmt.Errorf("autoscale.confidence must be in [0, 1), got %g", a.Confidence)
	}
	if math.IsNaN(a.TargetUtilization) || a.TargetUtilization < 0 || a.TargetUtilization > 1 {
		return fmt.Errorf("autoscale.target_utilization must be in [0, 1], got %g", a.TargetUtilization)
	}
	if !isFiniteNonNeg(a.PreWarmS) || a.PreWarmS > maxLeadS {
		return fmt.Errorf("autoscale.pre_warm_s must be a finite duration in [0, %d], got %g", maxLeadS, a.PreWarmS)
	}
	if !isFiniteNonNeg(a.IdleAfterS) || a.IdleAfterS > maxLeadS {
		return fmt.Errorf("autoscale.idle_after_s must be a finite duration in [0, %d], got %g", maxLeadS, a.IdleAfterS)
	}
	for i, tq := range a.Tiers {
		if tq.Tier == "" || !pricing.KnownTier(tq.Tier) {
			return fmt.Errorf("autoscale.tiers[%d].tier: unknown tier %q (valid: %s, %s, %s)",
				i, tq.Tier, pricing.TierSpot, pricing.TierOnDemand, pricing.TierReserved)
		}
		if tq.MaxNodes < 0 || tq.MaxNodes > maxNodes {
			return fmt.Errorf("autoscale.tiers[%d].max_nodes must be in [0, %d], got %d", i, maxNodes, tq.MaxNodes)
		}
	}
	return nil
}

// isFiniteNonNeg reports whether v is a usable duration value.
func isFiniteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// policy lowers a validated spec onto a fresh gfs.AutoscalePolicy.
// Each call builds a new policy, preserving the one-policy-per-run
// contract across session retries.
func (a *AutoscaleSpec) policy() *gfs.AutoscalePolicy {
	mode, _ := autoscale.ParseMode(a.Mode) // validated upstream
	pol := &gfs.AutoscalePolicy{
		Mode:              mode,
		Model:             a.Model,
		GPUsPerNode:       a.GPUsPerNode,
		MaxNodes:          a.MaxNodes,
		Step:              a.Step,
		Confidence:        a.Confidence,
		TargetUtilization: a.TargetUtilization,
		PreWarm:           simclock.Duration(a.PreWarmS),
		IdleAfter:         simclock.Duration(a.IdleAfterS),
	}
	for _, tq := range a.Tiers {
		pol.Tiers = append(pol.Tiers, gfs.AutoscaleTierQuota{Tier: tq.Tier, MaxNodes: tq.MaxNodes})
	}
	return pol
}

// specScheduler builds one named baseline stack. A nil scheduler
// means the engine's default reactive GFS stack.
type specScheduler func() (sched.Scheduler, sched.QuotaPolicy)

// schedulers maps Spec.Scheduler names to stack constructors — the
// one scheduler-name table every driver resolves through.
var schedulers = map[string]specScheduler{
	"gfs":     func() (sched.Scheduler, sched.QuotaPolicy) { return nil, nil },
	"yarn":    func() (sched.Scheduler, sched.QuotaPolicy) { return baselines.NewYARNCS(), nil },
	"chronus": func() (sched.Scheduler, sched.QuotaPolicy) { return baselines.NewChronus(), nil },
	"lyra":    func() (sched.Scheduler, sched.QuotaPolicy) { return baselines.NewLyra(), nil },
	"fgd":     func() (sched.Scheduler, sched.QuotaPolicy) { return baselines.NewFGD(), nil },
	"firstfit": func() (sched.Scheduler, sched.QuotaPolicy) {
		return baselines.NewStaticFirstFit(), sched.StaticQuota{Fraction: 0.25}
	},
}

// routePolicies maps Spec.Route names to admission policies.
var routePolicies = map[string]func() gfs.RoutePolicy{
	"least-loaded":   gfs.RouteLeastLoaded,
	"cheapest-spot":  gfs.RouteCheapestSpot,
	"forecast-aware": gfs.RouteForecastAware,
	"round-robin":    gfs.RouteRoundRobin,
}

// Sizing bounds: one gfsd session must not be able to pin a worker on
// a months-long simulation or allocate an absurd cluster, and a spec
// means the same thing wherever it runs, so gfsim obeys them too.
const (
	maxNodes       = 4096
	maxGPUsPerNode = 16
	maxDays        = 14
	maxSpotScale   = 16
	// maxLeadS bounds autoscale lead and grace durations to the
	// longest run a spec can describe; anything beyond is a typo, and
	// the bound keeps the float→simclock conversion overflow-free.
	maxLeadS = maxDays * 24 * 3600
)

// Normalize fills the defaults into zero fields.
func (sp *Spec) Normalize() {
	if sp.Scheduler == "" {
		sp.Scheduler = "gfs"
	}
	if sp.Nodes == 0 {
		sp.Nodes = 16
	}
	if sp.GPUsPerNode == 0 {
		sp.GPUsPerNode = 8
	}
	if sp.Days == 0 {
		sp.Days = 1
	}
	if sp.SpotScale == 0 {
		sp.SpotScale = 1
	}
	if sp.Seed == 0 {
		sp.Seed = 17
	}
	if sp.Route == "" {
		sp.Route = "least-loaded"
	}
}

// Validate rejects unknown names and out-of-bound sizes. It assumes
// Normalize ran first.
func (sp *Spec) Validate() error {
	if _, ok := schedulers[sp.Scheduler]; !ok {
		return fmt.Errorf("unknown scheduler %q (valid: gfs, yarn, chronus, lyra, fgd, firstfit)", sp.Scheduler)
	}
	if _, ok := routePolicies[sp.Route]; !ok {
		return fmt.Errorf("unknown route policy %q (valid: least-loaded, cheapest-spot, forecast-aware, round-robin)", sp.Route)
	}
	if sp.Federation && sp.Scheduler != "gfs" {
		return fmt.Errorf("scheduler %q does not apply to federation (members run the reactive GFS stack)", sp.Scheduler)
	}
	if sp.Nodes < 1 || sp.Nodes > maxNodes {
		return fmt.Errorf("nodes must be in [1, %d], got %d", maxNodes, sp.Nodes)
	}
	if sp.GPUsPerNode < 1 || sp.GPUsPerNode > maxGPUsPerNode {
		return fmt.Errorf("gpus_per_node must be in [1, %d], got %d", maxGPUsPerNode, sp.GPUsPerNode)
	}
	if sp.Days < 1 || sp.Days > maxDays {
		return fmt.Errorf("days must be in [1, %d], got %d", maxDays, sp.Days)
	}
	if sp.SpotScale < 0 || sp.SpotScale > maxSpotScale {
		return fmt.Errorf("spot_scale must be in [0, %d], got %g", maxSpotScale, sp.SpotScale)
	}
	if sp.Scenario != "" {
		if _, err := sp.Scale().NamedScenario(sp.Scenario); err != nil {
			return err
		}
	}
	if sp.Autoscale != nil {
		if sp.Federation {
			return fmt.Errorf("autoscale does not apply to federation (members manage capacity per engine)")
		}
		if err := sp.Autoscale.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Scale lowers the spec's cluster shape onto the experiment scale the
// paper harness uses: the clusters, workloads and named scenarios a
// spec builds are the ones gfsbench's small-scale experiments run.
func (sp *Spec) Scale() experiments.SimScale {
	s := experiments.SmallScale()
	s.Nodes = sp.Nodes
	s.GPUsPerNode = sp.GPUsPerNode
	s.Days = sp.Days
	s.Seed = sp.Seed
	return s
}

// Decode parses a JSON Spec, fills defaults and validates it — the
// exact pipeline gfsd applies to POST /v1/sessions bodies (unknown
// fields rejected), exercised and fuzzed here without an HTTP server.
func Decode(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return sp, err
	}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	return sp, nil
}
