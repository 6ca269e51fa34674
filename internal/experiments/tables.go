package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/sjtucitlab/gfs/internal/sched"
)

// SchedRow is one scheduler's metrics in the Table 5 layout.
type SchedRow struct {
	Scheduler string
	// HP metrics (seconds).
	HPJCTP99, HPJCT, HPJQT float64
	// Spot metrics (seconds, rate).
	SpotJCT, SpotJQT float64
	// EvictionRate is NaN when the scheduler's eviction semantics
	// make the metric inapplicable (Chronus leases).
	EvictionRate float64
	// Allocation rate over the run.
	AllocationRate float64
}

func rowFrom(res *sched.Result, evictionNA bool) SchedRow {
	r := SchedRow{
		Scheduler:      res.SchedulerName,
		HPJCTP99:       res.HP.JCTP99,
		HPJCT:          res.HP.JCT,
		HPJQT:          res.HP.JQT,
		SpotJCT:        res.Spot.JCT,
		SpotJQT:        res.Spot.JQT,
		EvictionRate:   res.Spot.EvictionRate,
		AllocationRate: res.AllocationRate,
	}
	if evictionNA {
		r.EvictionRate = math.NaN()
	}
	return r
}

// Table5 reproduces the scheduler comparison at a given spot workload
// scale (1 = low, 2 = medium, 4 = high). The returned rows are
// ordered: YARN-CS, Chronus, Lyra, FGD, GFS.
func Table5(scale SimScale, spotScale float64) ([]SchedRow, error) {
	est, err := scale.TrainEstimator()
	if err != nil {
		return nil, fmt.Errorf("experiments: table5: %w", err)
	}
	var rows []SchedRow
	for _, run := range comparisonRuns() {
		tasks := scale.Trace(spotScale)
		var res *sched.Result
		if run.gfs {
			res = scale.RunGFS(scale.NewGFS(est, GFSFull, 1), tasks)
		} else {
			res = scale.RunBaseline(run.scheduler(), run.quota, tasks)
		}
		rows = append(rows, rowFrom(res, run.evictionNA))
	}
	return rows, nil
}

// FormatTable5 renders rows like the paper's Table 5.
func FormatTable5(rows []SchedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %10s %8s | %10s %9s %7s\n",
		"", "JCT-p99(s)", "JCT(s)", "JQT(s)", "JCT(s)", "JQT(s)", "e(%)")
	fmt.Fprintf(&b, "%-10s %32s | %28s\n", "", "HP tasks", "Spot tasks")
	for _, r := range rows {
		ev := "-"
		if !math.IsNaN(r.EvictionRate) {
			ev = fmt.Sprintf("%.2f", 100*r.EvictionRate)
		}
		fmt.Fprintf(&b, "%-10s %12.1f %10.1f %8.1f | %10.1f %9.1f %7s\n",
			r.Scheduler, r.HPJCTP99, r.HPJCT, r.HPJQT, r.SpotJCT, r.SpotJQT, ev)
	}
	return b.String()
}

// schedRun describes one comparison entry.
type schedRun struct {
	gfs        bool
	scheduler  func() sched.Scheduler
	quota      sched.QuotaPolicy
	evictionNA bool
}

// Table6 reproduces the guarantee-hours sensitivity (H ∈ {1, 2, 4})
// under the medium spot workload.
func Table6(scale SimScale) ([]Table6Row, error) {
	est, err := scale.TrainEstimator()
	if err != nil {
		return nil, fmt.Errorf("experiments: table6: %w", err)
	}
	var rows []Table6Row
	for _, h := range []int{1, 2, 4} {
		// Horizon must cover H hours.
		s := scale
		if s.GDEHorizon < h {
			s.GDEHorizon = h
		}
		res := s.RunGFS(s.NewGFS(est, GFSFull, h), s.Trace(2))
		rows = append(rows, Table6Row{
			H:            h,
			HPJCT:        res.HP.JCT,
			HPJQT:        res.HP.JQT,
			SpotJCT:      res.Spot.JCT,
			SpotJQT:      res.Spot.JQT,
			EvictionRate: res.Spot.EvictionRate,
		})
	}
	return rows, nil
}

// Table6Row is one guarantee-hours setting.
type Table6Row struct {
	H                int
	HPJCT, HPJQT     float64
	SpotJCT, SpotJQT float64
	EvictionRate     float64
}

// FormatTable6 renders the sensitivity table.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%2s %10s %8s | %10s %9s %7s\n", "H", "JCT(s)", "JQT(s)", "JCT(s)", "JQT(s)", "e(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%2d %10.1f %8.1f | %10.1f %9.1f %7.2f\n",
			r.H, r.HPJCT, r.HPJQT, r.SpotJCT, r.SpotJQT, 100*r.EvictionRate)
	}
	return b.String()
}

// AblationRow is one variant's metrics (Tables 8–10).
type AblationRow struct {
	Variant          string
	HPJCT, HPJQT     float64
	SpotJCT, SpotJQT float64
	EvictionRate     float64
}

func ablationRow(name string, res *sched.Result) AblationRow {
	return AblationRow{
		Variant: name,
		HPJCT:   res.HP.JCT, HPJQT: res.HP.JQT,
		SpotJCT: res.Spot.JCT, SpotJQT: res.Spot.JQT,
		EvictionRate: res.Spot.EvictionRate,
	}
}

// Table8 reproduces the GDE ablation: GFS-e (previous-week peak
// forecasts) vs full GFS, under the medium spot workload.
func Table8(scale SimScale) ([]AblationRow, error) {
	naive, err := scale.NaiveEstimator()
	if err != nil {
		return nil, fmt.Errorf("experiments: table8: %w", err)
	}
	full, err := scale.TrainEstimator()
	if err != nil {
		return nil, fmt.Errorf("experiments: table8: %w", err)
	}
	rows := []AblationRow{
		ablationRow("GFS-e", scale.RunGFS(scale.NewGFS(naive, GFSNaiveForecast, 1), scale.Trace(2))),
		ablationRow("GFS", scale.RunGFS(scale.NewGFS(full, GFSFull, 1), scale.Trace(2))),
	}
	return rows, nil
}

// Table9 reproduces the SQA ablation: GFS-d (η pinned to 1) vs full
// GFS.
func Table9(scale SimScale) ([]AblationRow, error) {
	est, err := scale.TrainEstimator()
	if err != nil {
		return nil, fmt.Errorf("experiments: table9: %w", err)
	}
	rows := []AblationRow{
		ablationRow("GFS-d", scale.RunGFS(scale.NewGFS(est, GFSStaticEta, 1), scale.Trace(2))),
		ablationRow("GFS", scale.RunGFS(scale.NewGFS(est, GFSFull, 1), scale.Trace(2))),
	}
	return rows, nil
}

// Table10 reproduces the PTS ablation: GFS-sp, GFS-s, GFS-p vs full
// GFS.
func Table10(scale SimScale) ([]AblationRow, error) {
	est, err := scale.TrainEstimator()
	if err != nil {
		return nil, fmt.Errorf("experiments: table10: %w", err)
	}
	rows := []AblationRow{
		ablationRow("GFS-sp", scale.RunGFS(scale.NewGFS(est, GFSSimpleBoth, 1), scale.Trace(2))),
		ablationRow("GFS-s", scale.RunGFS(scale.NewGFS(est, GFSSimpleScore, 1), scale.Trace(2))),
		ablationRow("GFS-p", scale.RunGFS(scale.NewGFS(est, GFSRandomPreempt, 1), scale.Trace(2))),
		ablationRow("GFS", scale.RunGFS(scale.NewGFS(est, GFSFull, 1), scale.Trace(2))),
	}
	return rows, nil
}

// FormatAblation renders Tables 8–10.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s | %10s %9s %7s\n", "", "JCT(s)", "JQT(s)", "JCT(s)", "JQT(s)", "e(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.1f %8.1f | %10.1f %9.1f %7.2f\n",
			r.Variant, r.HPJCT, r.HPJQT, r.SpotJCT, r.SpotJQT, 100*r.EvictionRate)
	}
	return b.String()
}

// Table1Row summarizes one heterogeneous pool (Table 1).
type Table1Row struct {
	Model          string
	Nodes          int
	GPUsPerNode    int
	AllocationRate float64
}

// Table1 simulates a scaled-down heterogeneous cluster under the
// pre-GFS first-fit scheduler and reports per-pool allocation rates.
// Pool shapes follow Table 1 (A10 1-GPU nodes; A100/A800/H800 8-GPU
// nodes); loads are tuned so high-end pools sit below 80% as in
// production.
func Table1(scale SimScale) []Table1Row {
	pools := []struct {
		model string
		nodes int
		gpus  int
		load  float64
	}{
		{"A10", scale.Nodes * 4, 1, 0.92},
		{"A100", scale.Nodes, 8, 0.72},
		{"A800", scale.Nodes / 4, 8, 0.62},
		{"H800", scale.Nodes / 2, 8, 0.66},
	}
	var rows []Table1Row
	for i, p := range pools {
		if p.nodes < 1 {
			p.nodes = 1
		}
		cl := clusterOf(p.model, p.nodes, p.gpus)
		tasks := traceOf(scale, p.model, float64(p.nodes*p.gpus), p.load, i, float64(p.gpus))
		res := runFF(cl, tasks)
		rows = append(rows, Table1Row{
			Model: p.model, Nodes: p.nodes, GPUsPerNode: p.gpus,
			AllocationRate: res.AllocationRate,
		})
	}
	return rows
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s %10s %16s\n", "Model", "Nodes", "GPUs/Node", "Allocation Rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %6d %10d %15.2f%%\n", r.Model, r.Nodes, r.GPUsPerNode, 100*r.AllocationRate)
	}
	return b.String()
}
