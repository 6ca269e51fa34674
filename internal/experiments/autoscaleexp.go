package experiments

import (
	"fmt"
	"strings"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// AutoscaleRow is one capacity strategy's outcome in the autoscale
// experiment: its collected report plus the derived monthly ledger
// (allocation benefit minus autoscaled-capacity spend, both
// normalized to the paper's 730-hour month).
type AutoscaleRow struct {
	// Name identifies the strategy: static, reactive or predictive.
	Name string
	// BaseNodes is the fixed (owned) cluster size the strategy starts
	// from; autoscaled strategies buy the rest on demand.
	BaseNodes int
	// Report is the run's collected report (summary + cost ledger).
	Report *gfs.Report
	// OwnedUSD prices the owned base fleet for a month at the
	// reserved rate — what the strategy pays whether or not the
	// capacity is used.
	OwnedUSD float64
	// MonthlyTierUSD normalizes the run's per-tier autoscale spend to
	// a month (zero for the static strategy).
	MonthlyTierUSD float64
	// NetUSD is the strategy's monthly ledger: allocation benefit
	// over the pre-GFS baseline minus OwnedUSD and MonthlyTierUSD.
	NetUSD float64
	// SLOClean reports whether the strategy held the static fleet's
	// guaranteed-class service level: HP queue-wait p99 within one
	// scheduling tick of static's, and no extra unfinished HP tasks.
	// A cheap strategy that makes guaranteed work wait does not win.
	SLOClean bool
}

// sloTickSlack is the HP queue-p99 tolerance of the SLO gate: one
// quota interval, the granularity at which any capacity decision can
// land.
const sloTickSlack = 60.0

// autoscaleBaseNodes is the owned-cluster fraction autoscaled
// strategies start from: half the static fleet, the rest bought
// through the tier ladder as demand materializes.
func autoscaleBaseNodes(scale SimScale) int {
	base := scale.Nodes / 2
	if base < 1 {
		base = 1
	}
	return base
}

// autoscalePolicy builds the experiment's policy for one mode: caps
// sized so autoscaled capacity can restore the static fleet, leads
// stretched by the business-hours diurnal curve (capacity markets are
// tightest at peak), and the default spot → on-demand → reserved
// ladder of A100 8-card nodes.
func autoscalePolicy(scale SimScale, mode gfs.AutoscaleMode) *gfs.AutoscalePolicy {
	return &gfs.AutoscalePolicy{
		Mode:     mode,
		MaxNodes: scale.Nodes,
		// The GDE's quantiles are wide at experiment scale; a calmer
		// confidence keeps the forecast headroom from dominating the
		// tier bill while still landing capacity ahead of demand.
		Confidence: 0.7,
		Curve:      &timefeat.DiurnalCurve{PeakHour: 14, Width: 4},
	}
}

// AutoscaleExperiment compares three capacity strategies on the same
// medium-load workload: a static fleet sized for peak, and two
// half-sized fleets that autoscale the difference — reactively
// (observed demand only) and predictively (provisioning toward the
// forecast's upper quantile before demand lands). Each run collects
// the full report; the cost ledger prices allocation gained over the
// pre-GFS baseline and the autoscaled capacity bought per tier, so
// the rows decide whether closing the forecast→capacity loop pays.
func AutoscaleExperiment(scale SimScale) ([]AutoscaleRow, error) {
	// Pre-GFS baseline on the static fleet fixes the per-pool rates
	// every strategy's benefit is priced against.
	base := gfs.NewEngine(scale.NewCluster(),
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithQuota(gfs.StaticQuota(0.20)),
	).RunReport(scale.Trace(2))
	baselines := make(map[string]float64)
	if base.Cost != nil {
		for _, p := range base.Cost.Pools {
			baselines[p.Model] = p.Rate
		}
	}

	small := scale
	small.Nodes = autoscaleBaseNodes(scale)

	// The predictive policy consumes the same trained GDE the GFS
	// quota loop would use, so capacity decisions and the paper's
	// demand forecasts share one model.
	est, err := scale.TrainEstimator()
	if err != nil {
		return nil, err
	}

	runs := []struct {
		name  string
		scale SimScale
		mode  gfs.AutoscaleMode
		auto  bool
	}{
		{"static", scale, "", false},
		{"reactive", small, gfs.AutoscaleReactive, true},
		{"predictive", small, gfs.AutoscalePredictive, true},
	}
	rows := make([]AutoscaleRow, 0, len(runs))
	monthScale := 730 / (float64(scale.Days) * 24)
	ownedPerNode := float64(scale.GPUsPerNode) *
		pricing.TierPrice(pricing.DefaultTable(), "A100", pricing.TierReserved) * 730
	for _, r := range runs {
		collectors := []gfs.Collector{
			gfs.NewSummaryCollector(),
			gfs.NewCostCollector(baselines),
		}
		opts := []gfs.Option{
			gfs.WithInitialOrgDemand(scale.demandHistory()),
			gfs.WithCollectors(collectors...),
		}
		if r.auto {
			pol := autoscalePolicy(scale, r.mode)
			if r.mode == gfs.AutoscalePredictive {
				pol.Estimator = est
			}
			opts = append(opts, gfs.WithAutoscaler(pol))
		}
		// Every strategy runs the same reactive GFS stack over the
		// same full-fleet workload; only the capacity plan differs.
		rep := gfs.NewEngine(r.scale.NewCluster(), opts...).RunReport(scale.Trace(2))
		row := AutoscaleRow{
			Name:      r.name,
			BaseNodes: r.scale.Nodes,
			Report:    rep,
			OwnedUSD:  float64(float64(r.scale.Nodes) * ownedPerNode),
		}
		if rep.Cost != nil {
			row.MonthlyTierUSD = float64(rep.Cost.TierSpendUSD * monthScale)
			row.NetUSD = rep.Cost.MonthlyBenefitUSD - row.OwnedUSD - row.MonthlyTierUSD
		}
		rows = append(rows, row)
	}
	// The static fleet is the SLO reference: a capacity strategy is
	// clean when guaranteed work waits no longer than it would on the
	// peak-sized fleet.
	ref := rows[0].Report.Summary
	for i := range rows {
		s := rows[i].Report.Summary
		rows[i].SLOClean = s.HP.QueueP99 <= ref.HP.QueueP99+sloTickSlack &&
			s.HP.Unfinished <= ref.HP.Unfinished
	}
	return rows, nil
}

// FormatAutoscale renders the autoscale experiment for gfsbench: one
// line per capacity strategy with its SLO columns (HP queue-wait p99
// and unfinished count against the static reference) and the monthly
// ledger. The winner — marked * — is the best net ledger among
// SLO-clean strategies; rows that broke the guaranteed-class SLO are
// marked ✗ and cannot win, however cheap.
func FormatAutoscale(rows []AutoscaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %6s %8s %10s %8s %4s %12s %10s %10s %12s\n",
		"strategy", "nodes", "alloc%", "HPqp99(s)", "HPunf", "SLO", "benefit$/mo", "owned$/mo", "tier$/mo", "net$/mo")
	best := -1
	for i, r := range rows {
		if r.SLOClean && (best < 0 || r.NetUSD > rows[best].NetUSD) {
			best = i
		}
	}
	for i, r := range rows {
		s := r.Report.Summary
		var benefit float64
		if r.Report.Cost != nil {
			benefit = r.Report.Cost.MonthlyBenefitUSD
		}
		slo, mark := "ok", " "
		if !r.SLOClean {
			slo = "✗"
		}
		if i == best {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-11s %6d %8.2f %10.1f %8d %4s %12.0f %10.0f %10.0f %12.0f %s\n",
			r.Name, r.BaseNodes, 100*s.AllocationRate, s.HP.QueueP99, s.HP.Unfinished,
			slo, benefit, r.OwnedUSD, r.MonthlyTierUSD, r.NetUSD, mark)
	}
	return b.String()
}
