// Quickstart: schedule a day of mixed HP/spot work on a small A100
// pool with GFS and print the headline metrics.
package main

import (
	"fmt"
	"log"

	gfs "github.com/sjtucitlab/gfs"
)

func main() {
	// A 16-node, 128-GPU A100 pool.
	cluster := gfs.NewCluster("A100", 16, 8)

	// One simulated day of work calibrated to the pool size:
	// ~55% HP load plus a spot backlog.
	traceCfg := gfs.DefaultTraceConfig()
	traceCfg.Days = 1
	traceCfg.ClusterGPUs = cluster.TotalGPUs("")
	traceCfg.MaxDuration = 8 * gfs.Hour
	tasks := gfs.GenerateTrace(traceCfg)
	fmt.Printf("trace: %d tasks\n", len(tasks))

	// Train the demand estimator on two synthetic weeks of per-org
	// demand history (in production this is the cluster's own
	// telemetry).
	panel := gfs.SyntheticDemandPanel(24*14, 0.55*cluster.TotalGPUs(""), 1)
	est, err := gfs.TrainEstimator(gfs.EstimatorConfig{
		History: 48, Horizon: 4, Model: gfs.NewOrgLinearFast(8),
	}, panel, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Assemble GFS (GDE + SQA + PTS) into an engine and run. An
	// observer taps the event stream: here we just count evictions
	// as they happen.
	opts := gfs.DefaultOptions()
	opts.Estimator = est
	system := gfs.NewSystem(opts)
	evictions := 0
	engine := gfs.NewEngine(cluster,
		gfs.WithSystem(system),
		gfs.WithObserver(gfs.ObserverFunc(func(e gfs.Event) {
			if e.Kind == gfs.TaskEvicted {
				evictions++
			}
		})),
	)
	res := engine.Run(tasks)
	fmt.Printf("observed %d eviction events\n", evictions)

	fmt.Printf("HP   : %4d tasks  avg JCT %8.1fs  avg JQT %6.1fs\n",
		res.HP.Count, res.HP.JCT, res.HP.JQT)
	fmt.Printf("Spot : %4d tasks  avg JCT %8.1fs  avg JQT %6.1fs  eviction rate %.2f%%\n",
		res.Spot.Count, res.Spot.JCT, res.Spot.JQT, 100*res.Spot.EvictionRate)
	fmt.Printf("GPU allocation rate: %.1f%%\n", 100*res.AllocationRate)
}
