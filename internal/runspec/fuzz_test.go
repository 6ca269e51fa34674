package runspec

import (
	"bytes"
	"encoding/json"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/autoscale"
)

// FuzzRunSpecJSON drives the POST /v1/sessions spec decoder with
// arbitrary bodies: it must never panic, and any spec it accepts must
// satisfy the bounds Validate promises (those are what protect the
// multi-tenant workers from absurd sessions), name a known autoscale
// mode only on a single cluster, and decode the same way twice.
func FuzzRunSpecJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"scheduler":"yarn","nodes":32,"gpus_per_node":8,"days":2,"seed":7}`))
	f.Add([]byte(`{"scheduler":"gfs","federation":true,"route":"cheapest-spot","scenario":"rack-failure"}`))
	f.Add([]byte(`{"tasks":[{"id":1,"type":"hp","pods":1,"gpus_per_pod":1,"duration_s":60,"submit_s":0}]}`))
	f.Add([]byte(`{"scheduler":"nope"}`))
	f.Add([]byte(`{"nodes":1e9}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"autoscale":"predictive"}`))
	f.Add([]byte(`{"autoscale":"clairvoyant"}`))
	f.Add([]byte(`{"autoscale":"reactive","federation":true}`))
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
		if sp.Autoscale != "" {
			if _, err := autoscale.ParseMode(sp.Autoscale); err != nil {
				t.Fatalf("accepted unknown autoscale mode %q", sp.Autoscale)
			}
			if sp.Federation {
				t.Fatalf("accepted autoscale %q with federation", sp.Autoscale)
			}
		}
		again, err := Decode(data)
		if err != nil {
			t.Fatalf("second decode of accepted spec failed: %v", err)
		}
		if sp.Scheduler != again.Scheduler || sp.Nodes != again.Nodes ||
			sp.Seed != again.Seed || sp.Route != again.Route ||
			sp.Autoscale != again.Autoscale || len(sp.Tasks) != len(again.Tasks) {
			t.Fatalf("decode not deterministic: %+v vs %+v", sp, again)
		}
	})
}

// FuzzAutoscalePolicyJSON drives the spec decoder with arbitrary
// autoscale values: it must never panic, and an autoscale value it
// accepts must be a JSON string naming a known mode on a single
// cluster that lowers onto a policy. The old object form (a mode plus
// tuning keys) must be rejected, never silently dropped — those are
// the promises that keep a malformed session from ever reaching a
// worker's simulation loop.
func FuzzAutoscalePolicyJSON(f *testing.F) {
	f.Add([]byte(`{"autoscale":"predictive"}`))
	f.Add([]byte(`{"autoscale":"reactive","nodes":32}`))
	f.Add([]byte(`{"autoscale":"clairvoyant"}`))
	f.Add([]byte(`{"autoscale":"reactive","federation":true}`))
	f.Add([]byte(`{"autoscale":"lunar"}`))
	f.Add([]byte(`{"autoscale":{"mode":"predictive"}}`))
	f.Add([]byte(`{"autoscale":{"mode":"reactive","max_nodes":32,"step":2}}`))
	f.Add([]byte(`{"autoscale":["predictive"]}`))
	f.Add([]byte(`{"autoscale":""}`))
	f.Add([]byte(`{"autoscale":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return
		}
		var probe struct {
			Autoscale json.RawMessage `json:"autoscale"`
		}
		if json.Unmarshal(data, &probe) == nil {
			raw := bytes.TrimSpace(probe.Autoscale)
			if len(raw) > 0 && !bytes.Equal(raw, []byte("null")) && raw[0] != '"' {
				t.Fatalf("accepted non-string autoscale value %s", raw)
			}
		}
		if sp.Autoscale == "" {
			return
		}
		if sp.Federation {
			t.Fatalf("accepted autoscale %q with federation", sp.Autoscale)
		}
		pol, err := gfs.NamedAutoscaler(sp.Autoscale)
		if err != nil || pol == nil {
			t.Fatalf("accepted autoscale %q that does not lower onto a policy: %v", sp.Autoscale, err)
		}
	})
}
