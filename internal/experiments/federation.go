package experiments

import (
	"fmt"
	"strings"

	gfs "github.com/sjtucitlab/gfs"
)

// federationScenarios are the storm profiles the federation
// experiment drives through the stormy member: the cascading
// correlated failure and the diurnal reclamation storm from the
// scenario library.
var federationScenarios = []string{"zone-cascade", "diurnal-storm"}

// FederationRow is one scenario × mode × member cell of the
// federation experiment ("total" aggregates the members).
type FederationRow struct {
	Scenario, Mode, Member string
	// GoodputGPUH is useful work completed, in GPU-hours.
	GoodputGPUH float64
	// EvictionRate is the spot eviction rate e.
	EvictionRate float64
	// AllocationRate is the time-averaged GPU allocation rate.
	AllocationRate float64
	// MigratedIn and MigratedOut count spillover migrations.
	MigratedIn, MigratedOut int
	// Unfinished counts tasks never completed.
	Unfinished int
}

// FederationExperiment measures what federation buys under correlated
// capacity loss: a two-member federation (one stormy, one calm) runs
// the same doubled-capacity workload routed (forecast-aware admission
// + least-loaded spillover) and isolated (static round-robin split,
// no spillover), reporting per-member and aggregate goodput, eviction
// and allocation rates, migrations and unfinished tasks. Both runs —
// and repeated invocations — are deterministic in the scale alone.
func FederationExperiment(scale SimScale) ([]FederationRow, error) {
	// The workload is sized for the combined capacity of both
	// members, so each mode faces the same federation-wide pressure.
	tscale := scale
	tscale.Nodes *= 2
	var rows []FederationRow
	for _, scenario := range federationScenarios {
		for _, mode := range []string{"federated", "isolated"} {
			storm, err := scale.NamedScenario(scenario)
			if err != nil {
				return nil, err
			}
			opts := []gfs.FederationOption{gfs.WithRoute(gfs.RouteForecastAware())}
			if mode == "isolated" {
				opts = []gfs.FederationOption{
					gfs.WithRoute(gfs.RouteRoundRobin()),
					gfs.WithSpillover(nil),
				}
			}
			res := gfs.NewFederation(scale.WestEastMembers(storm), opts...).Run(tscale.Trace(2))
			var totalSpotRuns, totalSpotEvictions int
			var allocSum float64
			for _, m := range res.Members {
				rows = append(rows, FederationRow{
					Scenario: scenario, Mode: mode, Member: m.Name,
					GoodputGPUH:    m.GoodputGPUSeconds / 3600,
					EvictionRate:   m.Result.Spot.EvictionRate,
					AllocationRate: m.Result.AllocationRate,
					MigratedIn:     m.MigratedIn,
					MigratedOut:    m.MigratedOut,
					Unfinished:     m.Result.UnfinishedHP + m.Result.UnfinishedSpot,
				})
				totalSpotRuns += m.Result.Spot.Runs
				totalSpotEvictions += m.Result.Spot.Evictions
				allocSum += m.Result.AllocationRate
			}
			aggEvict := 0.0
			if totalSpotRuns > 0 {
				aggEvict = float64(totalSpotEvictions) / float64(totalSpotRuns)
			}
			rows = append(rows, FederationRow{
				Scenario: scenario, Mode: mode, Member: "total",
				GoodputGPUH:    res.GoodputGPUSeconds / 3600,
				EvictionRate:   aggEvict,
				AllocationRate: allocSum / float64(len(res.Members)),
				MigratedIn:     res.Migrations,
				MigratedOut:    res.Migrations,
				Unfinished:     res.Unfinished,
			})
		}
	}
	return rows, nil
}

// FormatFederation renders the federation experiment as a table.
func FormatFederation(rows []FederationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %-6s %12s %8s %8s %5s %5s %6s\n",
		"Scenario", "Mode", "Member", "Goodput(GPUh)", "Evict%", "Alloc%", "In", "Out", "Unfin")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-10s %-6s %13.1f %7.2f%% %7.2f%% %5d %5d %6d\n",
			r.Scenario, r.Mode, r.Member, r.GoodputGPUH,
			100*r.EvictionRate, 100*r.AllocationRate,
			r.MigratedIn, r.MigratedOut, r.Unfinished)
	}
	return b.String()
}
