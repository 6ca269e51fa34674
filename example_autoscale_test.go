package gfs_test

// The examples in this file are the runnable snippets behind
// docs/autoscaling.md — each cookbook entry compiles and runs as part
// of the test suite, so the docs cannot drift from the API.

import (
	"fmt"

	gfs "github.com/sjtucitlab/gfs"
)

// exampleTrace is the workload the autoscale examples share: one day
// of demand sized for 128 GPUs, far more than the 10-node clusters
// below own, so the autoscaler has real provisioning to do.
func exampleTrace(seed int64) []*gfs.Task {
	cfg := gfs.DefaultTraceConfig()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.Orgs = []string{"OrgA", "OrgB", "OrgC"}
	cfg.MaxDuration = 12 * gfs.Hour
	return gfs.GenerateTrace(cfg)
}

// WithAutoscaler installs a capacity controller that is consulted at
// every quota tick. Capacity churn lands on the same deterministic
// event path as scenario actions and reaches observers as
// NodeProvisioned / NodeRetired events.
func ExampleWithAutoscaler() {
	pol := &gfs.AutoscalePolicy{
		Mode:     gfs.AutoscaleReactive,
		MaxNodes: 8,
		Step:     2,
	}
	var provisioned, retired int
	obs := gfs.ObserverFunc(func(e gfs.Event) {
		switch e.Kind {
		case gfs.NodeProvisioned:
			provisioned++
		case gfs.NodeRetired:
			retired++
		}
	})
	eng := gfs.NewEngine(gfs.NewCluster("A100", 10, 8),
		gfs.WithAutoscaler(pol), gfs.WithObserver(obs))
	eng.Run(exampleTrace(13))
	fmt.Println("provisioned", provisioned, "retired", retired)
	// Output: provisioned 11 retired 11
}

// NamedAutoscaler resolves the policy names the gfsim -autoscale flag
// and the gfsd run-spec accept; unknown names are rejected rather
// than defaulted.
func ExampleNamedAutoscaler() {
	pol, _ := gfs.NamedAutoscaler("predictive")
	fmt.Println(pol.Mode)
	_, err := gfs.NamedAutoscaler("clairvoyant")
	fmt.Println(err)
	// Output:
	// predictive
	// autoscale: unknown mode "clairvoyant" (want "reactive" or "predictive")
}

// A fully-specified policy: predictive scale-ups toward the forecast's
// 90% quantile, an 8-node budget (split by the spot → on-demand →
// reserved ladder into 4, 2 and 8 nodes), and pre-warm leads stretched
// by the diurnal curve. Build a fresh policy per run — Plan keeps
// per-run state.
func ExampleAutoscalePolicy() {
	pol := &gfs.AutoscalePolicy{
		Mode:       gfs.AutoscalePredictive,
		MaxNodes:   8,
		Step:       2,
		Confidence: 0.9,
		Curve:      &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
	}
	// Lifetime provision counts per tier: tier caps bound the live
	// fleet, so as idle nodes retire and demand returns, the same
	// budget is re-bought — cheapest tier first.
	byTier := map[string]int{}
	obs := gfs.ObserverFunc(func(e gfs.Event) {
		if e.Kind == gfs.NodeProvisioned {
			byTier[e.Tier]++
		}
	})
	eng := gfs.NewEngine(gfs.NewCluster("A100", 10, 8),
		gfs.WithAutoscaler(pol), gfs.WithObserver(obs))
	eng.Run(exampleTrace(12))
	fmt.Println("spot", byTier["spot"], "on-demand", byTier["on-demand"], "reserved", byTier["reserved"])
	// Output: spot 10 on-demand 4 reserved 4
}
