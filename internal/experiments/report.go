package experiments

import (
	"strings"

	gfs "github.com/sjtucitlab/gfs"
)

// ReportData is the output of the report experiment: the pre-GFS
// baseline run's report and the GFS run's report, whose cost ledger
// prices the allocation gained over the baseline — the simulated
// counterpart of the paper's Fig. 9 / §4.3 monthly-benefit
// accounting.
type ReportData struct {
	// Baseline is the pre-deployment configuration's report (static
	// quota + first fit).
	Baseline *gfs.Report
	// GFS is the full stack's report; its Cost section uses the
	// baseline's per-pool allocation rates as the "pre" column.
	GFS *gfs.Report
}

// ReportExperiment demonstrates the metrics pipeline end to end: it
// runs the pre-GFS production configuration to establish per-pool
// baseline allocation rates, then the trained GFS stack with the
// full collector set, pricing reclaimed capacity against those
// baselines.
func ReportExperiment(scale SimScale) (*ReportData, error) {
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

	est, err := scale.TrainEstimator()
	if err != nil {
		return nil, err
	}
	sys := scale.NewGFS(est, GFSFull, 1)
	collectors := []gfs.Collector{
		gfs.NewSummaryCollector(),
		gfs.NewEvictionCollector(),
		gfs.NewQuotaCollector(),
		gfs.NewAllocationCollector(),
		gfs.NewCostCollector(baselines),
	}
	opts := append(scale.GFSOptions(sys), gfs.WithCollectors(collectors...))
	rep := gfs.NewEngine(scale.NewCluster(), opts...).RunReport(scale.Trace(2))
	return &ReportData{Baseline: base, GFS: rep}, nil
}

// FormatReport renders the report experiment for gfsbench.
func FormatReport(d *ReportData) string {
	var b strings.Builder
	b.WriteString("-- pre-GFS baseline (static quota + first fit) --\n")
	b.WriteString(d.Baseline.String())
	b.WriteString("\n-- GFS (collected report; cost priced vs baseline) --\n")
	b.WriteString(d.GFS.String())
	return b.String()
}
