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

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/sched"
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
	// Autoscale names the built-in capacity autoscaler's mode
	// (predictive or reactive) to attach to the run (single-cluster
	// sessions only): nodes are provisioned and retired mid-run across
	// the spot → on-demand → reserved tier ladder, and the report's
	// cost ledger gains per-tier spend. Empty runs a fixed fleet.
	Autoscale string `json:"autoscale,omitempty"`
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
	if sp.Autoscale != "" {
		if sp.Federation {
			return fmt.Errorf("autoscale does not apply to federation (members manage capacity per engine)")
		}
		if _, err := gfs.NamedAutoscaler(sp.Autoscale); err != nil {
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
