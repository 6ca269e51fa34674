// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4). Each benchmark runs the corresponding experiment
// at a reduced scale and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. Run `cmd/gfsbench -scale paper` for the
// full-scale version.
package gfs_test

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/stats"
)

// benchScale sizes the scheduling benchmarks: a 512-GPU pool over two
// days (MediumScale), where eviction-rate differences between
// schedulers are resolvable, with trimmed estimator training.
func benchScale() experiments.SimScale {
	s := experiments.MediumScale()
	s.TrainDays = 10
	s.OrgLinearEpochs = 6
	return s
}

// benchFigScale keeps the fast observational figures at small scale.
func benchFigScale() experiments.SimScale {
	s := experiments.SmallScale()
	s.TrainDays = 7
	s.OrgLinearEpochs = 6
	return s
}

func benchFcScale() experiments.FcScale {
	return experiments.FcScale{Weeks: 2, L: 48, H: 6, DeepEpochs: 2, LinearEpochs: 15, Seed: 9}
}

// sim10KScale sizes the hardware-limit benchmark: a 10,000-node
// (80,000-GPU) pool over a seven-day diurnal trace. Offered loads are
// scaled down so the trace stays in the low thousands of pods — the
// benchmark bounds the engine's fixed per-event and per-placement
// machinery (calendar queue, flat node tables, O(nodes) scoring scans)
// at production node counts, not queueing behaviour under contention.
func sim10KScale() experiments.SimScale {
	s := experiments.SmallScale()
	s.Nodes = 10000
	s.Days = 7
	s.HPLoad = 0.003
	s.SpotLoad = 0.00075
	s.GangScale = 4
	s.MaxTaskDuration = 24 * gfs.Hour
	return s
}

// benchSim drives the simulator hot loop through the Engine API over
// a one-day 128-GPU trace. The zero-observer variant is the baseline
// the event spine must not slow down.
func benchSim(b *testing.B, obs []gfs.Observer) {
	b.Helper()
	b.ReportAllocs()
	scale := benchFigScale()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := scale.Trace(2)
		opts := []gfs.Option{gfs.WithScheduler(gfs.NewYARNCS())}
		if len(obs) > 0 {
			opts = append(opts, gfs.WithObserver(obs...))
		}
		eng := gfs.NewEngine(gfs.NewCluster("A100", scale.Nodes, scale.GPUsPerNode), opts...)
		b.StartTimer()
		res := eng.Run(tasks)
		if i == b.N-1 {
			b.ReportMetric(100*res.AllocationRate, "allocPct")
		}
	}
}

// BenchmarkSim measures the simulator with zero observers registered
// (the event spine must cost nothing here). Its ns/op and allocs/op
// medians are both gated by internal/ci/benchgate: the allocation
// count is the regression tripwire for the pooled hot path (event
// records, transactions, placement registries), since a dropped pool
// shows up as an allocs/op jump even on foreign hardware.
func BenchmarkSim(b *testing.B) { benchSim(b, nil) }

// BenchmarkFederation measures the federated loop: a two-member
// federation — west under a correlated zone outage, east calm — with
// least-loaded routing and spillover over the one-day trace. Together
// with BenchmarkSim it is the pair the CI bench-regression gate
// watches (see .github/workflows/ci.yml and internal/ci/benchgate).
func BenchmarkFederation(b *testing.B) {
	scale := benchFigScale()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := scale.Trace(2)
		storm := gfs.CorrelatedFailure(6*gfs.Hour, "zone-0").
			RestoreDomain(9*gfs.Hour, "zone-0")
		fed := gfs.NewFederation([]gfs.Member{
			{Name: "west", Engine: gfs.NewEngine(
				gfs.NewClusterWithTopology("A100", scale.Nodes, scale.GPUsPerNode, 2, 4),
				gfs.WithScheduler(gfs.NewYARNCS()), gfs.WithScenario(storm))},
			{Name: "east", Engine: gfs.NewEngine(
				gfs.NewClusterWithTopology("A100", scale.Nodes, scale.GPUsPerNode, 2, 4),
				gfs.WithScheduler(gfs.NewYARNCS()))},
		})
		b.StartTimer()
		res := fed.Run(tasks)
		if i == b.N-1 {
			b.ReportMetric(float64(res.Migrations), "migrations")
			b.ReportMetric(res.GoodputGPUSeconds/3600, "goodputGPUh")
		}
	}
}

// BenchmarkTraceIngest measures the streaming ingestion hot path: one
// op decodes the standard one-day trace from an in-memory gzipped CSV
// through the Source pipeline into the one-pass stats accumulator.
// Allocations per op stay proportional to the task count (constant
// per task, no whole-trace buffering), which the allocs/op metric
// makes auditable; together with BenchmarkSim and BenchmarkFederation
// it is gated by the CI bench-regression job (internal/ci/benchgate).
func BenchmarkTraceIngest(b *testing.B) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	tasks := benchFigScale().Trace(2)
	if err := gfs.WriteTraceCSV(zw, tasks); err != nil {
		b.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := gfs.OpenTraceReader(bytes.NewReader(data), gfs.TraceFormatAuto)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := gfs.SummarizeTraceSource(src)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(stats.HPCount+stats.SpotCount), "tasks/op")
		}
	}
}

// BenchmarkReport measures the collected-run path: the full default
// collector set consuming the event spine, report assembly, and the
// JSONL export, over the standard one-day trace. Its allocs/op are
// recorded (and gated alongside ns/op by internal/ci/benchgate), and
// BenchmarkSim remains the zero-collector baseline the event spine
// must keep nil-cost.
func BenchmarkReport(b *testing.B) {
	scale := benchFigScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := scale.Trace(2)
		eng := gfs.NewEngine(gfs.NewCluster("A100", scale.Nodes, scale.GPUsPerNode),
			gfs.WithScheduler(gfs.NewYARNCS()))
		var buf bytes.Buffer
		b.StartTimer()
		rep := eng.RunReport(tasks)
		if err := rep.WriteJSONL(&buf); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(buf.Len()), "reportBytes")
			b.ReportMetric(100*rep.Summary.AllocationRate, "allocPct")
		}
	}
}

// BenchmarkSim10K is the scale gate of the hot-path rewrite — one
// full run at production node count, the sim10KScale pool under
// YARN-CS. A single op must stay under two seconds (see
// docs/performance.md), which only holds while per-event costs stay
// flat in cluster size.
func BenchmarkSim10K(b *testing.B) {
	scale := sim10KScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := scale.Trace(1)
		eng := gfs.NewEngine(gfs.NewCluster("A100", scale.Nodes, scale.GPUsPerNode), gfs.WithScheduler(gfs.NewYARNCS()))
		b.StartTimer()
		res := eng.Run(tasks)
		if i == b.N-1 {
			b.ReportMetric(float64(len(tasks)), "tasks")
			b.ReportMetric(100*res.AllocationRate, "allocPct")
		}
	}
}

// BenchmarkAutoscale bounds the capacity-planning overhead at
// production node count: the 10,000-node seven-day diurnal run with
// the predictive autoscaler planning at every quota tick. The fleet
// starts as 8,000 owned nodes plus a 2,000-node spot pool carried
// over from an earlier scale-up, so one op pays the per-tick forecast
// aggregation and the idle sweep over all 10,000 nodes for a week,
// plus the drain-and-retire bookkeeping as the autoscaler works the
// surplus pool off. Gated alongside BenchmarkSim10K by
// internal/ci/benchgate.
func BenchmarkAutoscale(b *testing.B) {
	scale := sim10KScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := scale.Trace(1)
		cl := gfs.NewCluster("A100", scale.Nodes-2000, scale.GPUsPerNode)
		cl.AddPool(gfs.Pool{Model: "A100", Nodes: 2000,
			GPUsPerNode: scale.GPUsPerNode, Tier: "spot"})
		pol := &gfs.AutoscalePolicy{
			Mode:        gfs.AutoscalePredictive,
			Model:       "A100",
			GPUsPerNode: scale.GPUsPerNode,
			MaxNodes:    scale.Nodes,
			Curve:       &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
		}
		eng := gfs.NewEngine(cl,
			gfs.WithScheduler(gfs.NewYARNCS()), gfs.WithAutoscaler(pol))
		b.StartTimer()
		res := eng.Run(tasks)
		if i == b.N-1 {
			b.ReportMetric(float64(len(tasks)), "tasks")
			b.ReportMetric(100*res.AllocationRate, "allocPct")
		}
	}
}

// BenchmarkSimObserver measures the same run with a counting observer
// attached, for comparison against BenchmarkSim.
func BenchmarkSimObserver(b *testing.B) {
	count := 0
	benchSim(b, []gfs.Observer{gfs.ObserverFunc(func(gfs.Event) { count++ })})
}

// BenchmarkTable1ClusterStats regenerates Table 1: per-pool GPU
// statistics and allocation rates under the pre-GFS scheduler.
func BenchmarkTable1ClusterStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchFigScale())
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(100*r.AllocationRate, "allocPct_"+r.Model)
			}
		}
	}
}

// BenchmarkFigure2RequestCDF regenerates Fig. 2: request-size CDFs
// for the 2020 and 2024 regimes.
func BenchmarkFigure2RequestCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure2(benchFigScale())
		if i == b.N-1 {
			b.ReportMetric(100*experiments.FullCardFraction(d.Pod2024), "fullCardPct2024")
			b.ReportMetric(100*experiments.FullCardFraction(d.Pod2020), "fullCardPct2020")
		}
	}
}

// BenchmarkFigure3RunQueue regenerates Fig. 3: run/queue time by
// request size under first-fit.
func BenchmarkFigure3RunQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure3(benchFigScale())
		if i == b.N-1 {
			for _, r := range rows {
				if r.GPUs == 1 {
					b.ReportMetric(r.MeanQueueH, "meanQueueH_1gpu")
				}
				if r.GPUs == 8 {
					b.ReportMetric(r.MeanQueueH, "meanQueueH_8gpu")
				}
			}
		}
	}
}

// BenchmarkFigure4OrgDemand regenerates Fig. 4: the four-organization
// demand panel.
func BenchmarkFigure4OrgDemand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := experiments.Figure4(int64(i) + 1)
		if i == b.N-1 {
			b.ReportMetric(stats.Max(p["OrgB"]), "orgB_maxGPUs")
			b.ReportMetric(stats.Min(p["OrgB"]), "orgB_minGPUs")
		}
	}
}

// BenchmarkFigure5EvictionWeeks regenerates Fig. 5: hourly eviction
// rates over four weeks of static-quota scheduling.
func BenchmarkFigure5EvictionWeeks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure5(benchFigScale(), 4)
		if i == b.N-1 && len(d.Weeks) == 4 {
			b.ReportMetric(d.Weeks[2].Max, "week3_maxRate")
			b.ReportMetric(d.Weeks[0].Mid, "week1_midRate")
		}
	}
}

// BenchmarkFigure8Heatmap regenerates Fig. 8: three-cluster
// allocation heatmaps.
func BenchmarkFigure8Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure8(benchFigScale())
		if i == b.N-1 {
			for _, c := range d {
				b.ReportMetric(100*c.MeanRate, "allocPct_"+c.Name)
			}
		}
	}
}

// BenchmarkFigure9Deployment regenerates Fig. 9: pre/post GFS
// deployment eviction and allocation rates.
func BenchmarkFigure9Deployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9(benchFigScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(100*(r.AllocPost-r.AllocPre), "allocGainPct_"+r.Model)
			}
		}
	}
}

// BenchmarkTable5Comparison regenerates Table 5 at the medium spot
// workload: GFS vs the four baselines.
func BenchmarkTable5Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(benchScale(), 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Scheduler == "GFS" {
					b.ReportMetric(r.HPJQT, "gfsHPJQTs")
					b.ReportMetric(r.SpotJQT, "gfsSpotJQTs")
					b.ReportMetric(100*r.EvictionRate, "gfsEvictPct")
				}
				if r.Scheduler == "YARN-CS" {
					b.ReportMetric(100*r.EvictionRate, "yarnEvictPct")
				}
			}
		}
	}
}

// BenchmarkTable5LowSpot regenerates Table 5a (low spot workload).
func BenchmarkTable5LowSpot(b *testing.B) {
	benchTable5At(b, 1)
}

// BenchmarkTable5HighSpot regenerates Table 5c (high spot workload).
func BenchmarkTable5HighSpot(b *testing.B) {
	benchTable5At(b, 4)
}

func benchTable5At(b *testing.B, spotScale float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(benchScale(), spotScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			imp := experiments.ImprovementOverBest(rows, func(r experiments.SchedRow) float64 {
				return r.SpotJCT
			})
			b.ReportMetric(100*imp, "gfsSpotJCTGainPct")
		}
	}
}

// BenchmarkTable6GuaranteeHours regenerates Table 6: sensitivity to
// H ∈ {1, 2, 4}.
func BenchmarkTable6GuaranteeHours(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				switch r.H {
				case 1:
					b.ReportMetric(r.SpotJQT, "spotJQTs_H1")
				case 4:
					b.ReportMetric(r.SpotJQT, "spotJQTs_H4")
				}
			}
		}
	}
}

// BenchmarkFigure10ForecastAccuracy regenerates Fig. 10: OrgLinear vs
// the six forecasting baselines.
func BenchmarkFigure10ForecastAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(benchFcScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Model == "OrgLinear" || r.Model == "DeepAR" || r.Model == "Transformer" {
					b.ReportMetric(r.MAE, "mae_"+r.Model)
				}
			}
		}
	}
}

// BenchmarkTable7Quantile regenerates Table 7: quantile accuracy and
// training time, OrgLinear vs DeepAR.
func BenchmarkTable7Quantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7(benchFcScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var ol, dar experiments.Table7Row
			for _, r := range rows {
				if r.Model == "OrgLinear" {
					ol = r
				} else {
					dar = r
				}
			}
			b.ReportMetric(ol.MAQE95, "orgLinearMAQE95")
			b.ReportMetric(dar.MAQE95, "deepARMAQE95")
			if ol.TrainSeconds > 0 {
				b.ReportMetric(dar.TrainSeconds/ol.TrainSeconds, "trainSpeedup")
			}
		}
	}
}

// BenchmarkTable8AblationGDE regenerates Table 8: GFS-e vs GFS.
func BenchmarkTable8AblationGDE(b *testing.B) {
	benchAblation(b, experiments.Table8, "GFS-e")
}

// BenchmarkTable9AblationSQA regenerates Table 9: GFS-d vs GFS.
func BenchmarkTable9AblationSQA(b *testing.B) {
	benchAblation(b, experiments.Table9, "GFS-d")
}

// BenchmarkTable10AblationPTS regenerates Table 10: GFS-sp/-s/-p vs
// GFS.
func BenchmarkTable10AblationPTS(b *testing.B) {
	benchAblation(b, experiments.Table10, "GFS-sp")
}

func benchAblation(b *testing.B, exp func(experiments.SimScale) ([]experiments.AblationRow, error), degraded string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := exp(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var full, deg experiments.AblationRow
			for _, r := range rows {
				if r.Variant == "GFS" {
					full = r
				}
				if r.Variant == degraded {
					deg = r
				}
			}
			b.ReportMetric(full.SpotJQT, "gfsSpotJQTs")
			b.ReportMetric(deg.SpotJQT, "degradedSpotJQTs")
			if !math.IsNaN(deg.EvictionRate) {
				b.ReportMetric(100*deg.EvictionRate, "degradedEvictPct")
				b.ReportMetric(100*full.EvictionRate, "gfsEvictPct")
			}
		}
	}
}

// BenchmarkMonthlyBenefit regenerates the §4.3 dollar-benefit
// estimate from the paper's deployment deltas.
func BenchmarkMonthlyBenefit(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total, _ = experiments.MonthlyBenefit(nil)
	}
	b.ReportMetric(total, "usdPerMonth")
}

// BenchmarkAblationCircuitBreaker measures the design choice called
// out in DESIGN.md: the Score3 circuit breaker on vs off, at the high
// spot workload where hot nodes matter most.
func BenchmarkAblationCircuitBreaker(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		est, err := scale.TrainEstimator()
		if err != nil {
			b.Fatal(err)
		}
		on := scale.RunGFS(scale.NewGFS(est, experiments.GFSFull, 1), scale.Trace(4))
		off := scale.RunGFS(scale.NewGFS(est, experiments.GFSSimpleScore, 1), scale.Trace(4))
		if i == b.N-1 {
			b.ReportMetric(100*on.Spot.EvictionRate, "evictPct_breakerOn")
			b.ReportMetric(100*off.Spot.EvictionRate, "evictPct_scoreOff")
		}
	}
}
