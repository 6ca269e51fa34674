package gfs_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// TestPartialOptionsRunTable4: a field left unset in Options is Table
// 4's setting. A zero Options with only the guarantee window set, or
// with only one ablation switch on, runs exactly what the same setting
// runs on top of DefaultOptions.
func TestPartialOptionsRunTable4(t *testing.T) {
	digest := func(opts gfs.Options) [32]byte {
		log := &sched.EventLog{}
		res := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
			gfs.WithSystem(gfs.NewSystem(opts)),
			gfs.WithObserver(log),
		).Run(chaosTrace(3))
		return sha256.Sum256(fmt.Appendf(nil, "%+v %+v %v %v %d %d %d %v\n%s",
			res.HP, res.Spot, res.AllocationRate, res.WastedGPUSeconds,
			res.UnfinishedHP, res.UnfinishedSpot, res.End, res.FinalQuota, log.String()))
	}
	for _, tc := range []struct {
		name string
		set  func(*gfs.Options)
	}{
		{"H=2", func(o *gfs.Options) { o.SQA.H = 2 }},
		{"DisableCoLocation", func(o *gfs.Options) { o.PTS.DisableCoLocation = true }},
		{"DisableEvictionAware", func(o *gfs.Options) { o.PTS.DisableEvictionAware = true }},
		{"RandomPreemption", func(o *gfs.Options) { o.PTS.RandomPreemption = true }},
		{"DisableEtaFeedback", func(o *gfs.Options) { o.DisableEtaFeedback = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var partial gfs.Options
			full := gfs.DefaultOptions()
			tc.set(&partial)
			tc.set(&full)
			if digest(partial) != digest(full) {
				t.Fatalf("a zero Options with only %s set runs off Table 4", tc.name)
			}
		})
	}
}
