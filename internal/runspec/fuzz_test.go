package runspec

import (
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/autoscale"
	"github.com/sjtucitlab/gfs/internal/pricing"
)

// FuzzRunSpecJSON drives the POST /v1/sessions spec decoder with
// arbitrary bodies: it must never panic, and any spec it accepts must
// satisfy the bounds Validate promises (those are what protect the
// multi-tenant workers from absurd sessions) and decode the same way
// twice.
func FuzzRunSpecJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scheduler":"yarn","nodes":32,"gpus_per_node":8,"days":2,"seed":7}`))
	f.Add([]byte(`{"scheduler":"gfs","federation":true,"route":"cheapest-spot","scenario":"rack-failure"}`))
	f.Add([]byte(`{"tasks":[{"id":1,"type":"hp","pods":1,"gpus_per_pod":1,"duration_s":60,"submit_s":0}]}`))
	f.Add([]byte(`{"scheduler":"nope"}`))
	f.Add([]byte(`{"nodes":1e9}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return
		}
		if _, ok := schedulers[sp.Scheduler]; !ok {
			t.Fatalf("accepted unknown scheduler %q", sp.Scheduler)
		}
		if _, ok := routePolicies[sp.Route]; !ok {
			t.Fatalf("accepted unknown route %q", sp.Route)
		}
		if sp.Nodes < 1 || sp.Nodes > maxNodes {
			t.Fatalf("accepted nodes %d outside [1,%d]", sp.Nodes, maxNodes)
		}
		if sp.GPUsPerNode < 1 || sp.GPUsPerNode > maxGPUsPerNode {
			t.Fatalf("accepted gpus_per_node %d outside [1,%d]", sp.GPUsPerNode, maxGPUsPerNode)
		}
		if sp.Days < 1 || sp.Days > maxDays {
			t.Fatalf("accepted days %d outside [1,%d]", sp.Days, maxDays)
		}
		if sp.SpotScale < 0 || sp.SpotScale > maxSpotScale {
			t.Fatalf("accepted spot_scale %g outside [0,%d]", sp.SpotScale, maxSpotScale)
		}
		again, err := Decode(data)
		if err != nil {
			t.Fatalf("second decode of accepted spec failed: %v", err)
		}
		if sp.Scheduler != again.Scheduler || sp.Nodes != again.Nodes ||
			sp.Seed != again.Seed || sp.Route != again.Route ||
			len(sp.Tasks) != len(again.Tasks) {
			t.Fatalf("decode not deterministic: %+v vs %+v", sp, again)
		}
	})
}

// FuzzAutoscalePolicyJSON drives the spec decoder with arbitrary
// autoscale sub-objects: it must never panic, and any autoscale spec
// it accepts must name a known mode and known tiers, carry only
// finite non-negative lead times, and lower onto a policy without
// blowing up — those are the promises that keep a malformed session
// from ever reaching a worker's simulation loop.
func FuzzAutoscalePolicyJSON(f *testing.F) {
	f.Add([]byte(`{"autoscale":{"mode":"predictive"}}`))
	f.Add([]byte(`{"autoscale":{"mode":"reactive","max_nodes":32,"step":2}}`))
	f.Add([]byte(`{"autoscale":{"mode":"predictive","confidence":0.95,"target_utilization":0.7,"pre_warm_s":600,"idle_after_s":1800}}`))
	f.Add([]byte(`{"autoscale":{"mode":"predictive","tiers":[{"tier":"spot","max_nodes":16},{"tier":"on-demand","max_nodes":8}]}}`))
	f.Add([]byte(`{"autoscale":{"mode":"predictive","tiers":[{"tier":"lunar","max_nodes":1}]}}`))
	f.Add([]byte(`{"autoscale":{"mode":"clairvoyant"}}`))
	f.Add([]byte(`{"autoscale":{"mode":"reactive","pre_warm_s":-60}}`))
	f.Add([]byte(`{"autoscale":{"mode":"reactive","confidence":1.5}}`))
	f.Add([]byte(`{"autoscale":{"mode":"reactive","idle_after_s":1e308}}`))
	f.Add([]byte(`{"autoscale":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil || sp.Autoscale == nil {
			return
		}
		a := sp.Autoscale
		if _, err := autoscale.ParseMode(a.Mode); err != nil {
			t.Fatalf("accepted unknown autoscale mode %q", a.Mode)
		}
		for i, tq := range a.Tiers {
			if tq.Tier == "" || !pricing.KnownTier(tq.Tier) {
				t.Fatalf("accepted unknown tier %q at tiers[%d]", tq.Tier, i)
			}
			if tq.MaxNodes < 0 {
				t.Fatalf("accepted negative tiers[%d].max_nodes %d", i, tq.MaxNodes)
			}
		}
		if math.IsNaN(a.Confidence) || a.Confidence < 0 || a.Confidence >= 1 {
			t.Fatalf("accepted confidence %g outside [0,1)", a.Confidence)
		}
		if math.IsNaN(a.TargetUtilization) || a.TargetUtilization < 0 || a.TargetUtilization > 1 {
			t.Fatalf("accepted target_utilization %g outside [0,1]", a.TargetUtilization)
		}
		if !isFiniteNonNeg(a.PreWarmS) || !isFiniteNonNeg(a.IdleAfterS) {
			t.Fatalf("accepted non-finite or negative lead: pre_warm_s=%g idle_after_s=%g", a.PreWarmS, a.IdleAfterS)
		}
		if pol := a.policy(); pol == nil {
			t.Fatal("validated spec lowered to a nil policy")
		}
	})
}
