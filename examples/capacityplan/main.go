// Capacity planning: watch the Spot Quota Allocator's closed loop in
// action. A demand surge hits the cluster mid-day; the quota
// contracts ahead of it (forecast-driven), and the η feedback reacts
// to observed evictions and queuing.
package main

import (
	"fmt"
	"log"
	"strings"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/sqa"
)

func main() {
	const capacity = 256.0

	// Train the estimator on demand history that includes daily
	// surges, so it anticipates them.
	panel := gfs.SyntheticDemandPanel(24*21, 0.6*capacity, 7)
	est, err := gfs.TrainEstimator(gfs.EstimatorConfig{
		History: 48, Horizon: 4, Model: gfs.NewOrgLinearFast(10),
	}, panel, 0)
	if err != nil {
		log.Fatal(err)
	}

	alloc := sqa.New(sqa.DefaultConfig())
	fmt.Println("hour | forecast HP demand | inventory | η | spot quota")

	// Replay a day of demand telemetry hour by hour.
	day := gfs.SyntheticDemandPanel(24*22, 0.6*capacity, 7)
	for hour := 24 * 21; hour < 24*22; hour++ {
		forecasts := make([]sqa.OrgForecast, 0, 4)
		demandNow := 0.0
		for _, name := range []string{"OrgA", "OrgB", "OrgC", "OrgD"} {
			hist := day[name][:hour]
			mu, sigma := est.Forecast(name, hist, hour-est.History())
			forecasts = append(forecasts, sqa.OrgForecast{Mu: mu, Sigma: sigma})
			demandNow += day[name][hour]
		}
		inventory := alloc.Inventory(capacity, forecasts)
		idle := capacity - demandNow
		if idle < 0 {
			idle = 0
		}
		quota := alloc.Quota(inventory, idle, 0)

		// Synthetic feedback: evictions spike when the quota
		// overshoots the true headroom.
		evictionRate := 0.0
		if quota > idle {
			evictionRate = 0.3
		}
		maxQueue := gfs.Duration(0)
		if quota < idle/2 {
			maxQueue = 2 * gfs.Hour // spot tasks piling up
		}
		alloc.UpdateEta(evictionRate, maxQueue)

		if hour%2 == 0 {
			bar := strings.Repeat("█", int(quota/capacity*40))
			fmt.Printf("%4d | %14.0f GPUs | %9.0f | %.2f | %5.0f %s\n",
				hour%24, demandNow, inventory, alloc.Eta(), quota, bar)
		}
	}

	// The same quota drives admission in a full simulation through
	// gfs.NewEngine(cl, gfs.WithQuota(...)); see examples/quickstart.
	var _ gfs.QuotaPolicy = gfs.StaticQuota(0.2)
}
