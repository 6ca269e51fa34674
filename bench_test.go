// Whole-run benchmarks of the public API and the allocation contracts
// pinned on them. Timing regressions are the bench/ pipeline's job
// (`bash bench/run.sh`, parent against change on every workload);
// what lives here is what it cannot hold: allocations per run are
// hardware-independent, so TestAllocCeilings gates them inside
// `go test ./...`, and the Benchmark* functions time the same ops for
// anyone who wants a number on the spot.
package gfs_test

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"runtime/debug"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/experiments"
)

// benchFigScale is the standard one-day 128-GPU workload with trimmed
// estimator training.
func benchFigScale() experiments.SimScale {
	s := experiments.SmallScale()
	s.TrainDays = 7
	s.OrgLinearEpochs = 6
	return s
}

// sim10KScale sizes the hardware-limit benchmark: a 10,000-node
// (80,000-GPU) pool over a seven-day diurnal trace. Offered loads are
// scaled down so the trace stays in the low thousands of pods — the
// benchmark bounds the engine's fixed per-event and per-placement
// machinery (event heap, flat node tables, placement index) at
// production node counts, not queueing behaviour under contention.
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

// metric is one headline number a benchmark reports beside time and
// allocations; an op returns its metrics by value so that reporting
// them costs the measured run no allocation.
type metric struct {
	unit  string
	value float64
}

// benchSetup is one benchmark op split where the timer stops and
// starts: calling it is the untimed set-up (a run mutates its tasks,
// so every op builds a fresh trace, cluster and engine), calling what
// it returns is the measured run.
type benchSetup func(tb testing.TB) func() [2]metric

// runBench times setup's op b.N times and reports the last op's
// metrics.
func runBench(b *testing.B, setup benchSetup) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := setup(b)
		b.StartTimer()
		ms := run()
		if i == b.N-1 {
			for _, m := range ms {
				if m.unit != "" {
					b.ReportMetric(m.value, m.unit)
				}
			}
		}
	}
}

// runSetup is one plain Engine.Run of scale's trace under the
// scheduler newSched builds, with zero observers registered.
func runSetup(scale experiments.SimScale, spotScale float64, newSched func() gfs.Scheduler) benchSetup {
	return func(testing.TB) func() [2]metric {
		tasks := scale.Trace(spotScale)
		eng := gfs.NewEngine(gfs.NewCluster("A100", scale.Nodes, scale.GPUsPerNode),
			gfs.WithScheduler(newSched()))
		return func() [2]metric {
			res := eng.Run(tasks)
			return [2]metric{{"tasks", float64(len(tasks))}, {"allocPct", 100 * res.AllocationRate}}
		}
	}
}

// simSetup is the simulator hot loop over the standard one-day trace
// under YARN-CS: with no observer the event spine must cost nothing
// here.
var simSetup = runSetup(benchFigScale(), 2, func() gfs.Scheduler { return baselines.NewYARNCS() })

// lyraSetup is the standard one-day run under Lyra with an HP load
// above capacity, so inference reclaims the loan pool all day: the
// baselines' preemption planning builds its victim orders in scheduler
// scratch and allocates nothing per node it costs.
var lyraSetup = runSetup(lyraScale(), 2, func() gfs.Scheduler { return baselines.NewLyra() })

func lyraScale() experiments.SimScale {
	s := benchFigScale()
	s.HPLoad = 1.1
	return s
}

// sim10KSetup is one full run at production node count. It stays in
// the milliseconds only while per-event costs stay flat in cluster
// size (see docs/performance.md).
var sim10KSetup = runSetup(sim10KScale(), 1, func() gfs.Scheduler { return baselines.NewYARNCS() })

// gzTrace encodes the standard one-day trace as gzipped CSV.
func gzTrace(tb testing.TB) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := writeTraceCSV(zw, benchFigScale().Trace(2)); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// traceIngestSetup is the streaming ingestion hot path: one op decodes
// data through the Source pipeline into the one-pass stats
// accumulator. Allocations stay proportional to the task count
// (constant per task, no whole-trace buffering).
func traceIngestSetup(data []byte) benchSetup {
	return func(tb testing.TB) func() [2]metric {
		return func() [2]metric {
			src, err := gfs.OpenTraceReader(bytes.NewReader(data), gfs.TraceFormatAuto)
			if err != nil {
				tb.Fatal(err)
			}
			stats, err := gfs.SummarizeTraceSource(src)
			if err != nil {
				tb.Fatal(err)
			}
			return [2]metric{{"tasks/op", float64(stats.HPCount + stats.SpotCount)}}
		}
	}
}

// reportSetup is the collected-run path: the full default collector
// set consuming the event spine, report assembly, and the JSONL
// export, over the standard one-day trace.
func reportSetup(tb testing.TB) func() [2]metric {
	scale := benchFigScale()
	tasks := scale.Trace(2)
	eng := gfs.NewEngine(gfs.NewCluster("A100", scale.Nodes, scale.GPUsPerNode),
		gfs.WithScheduler(baselines.NewYARNCS()))
	var buf bytes.Buffer
	return func() [2]metric {
		rep := eng.RunReport(tasks)
		if err := rep.WriteJSONL(&buf); err != nil {
			tb.Fatal(err)
		}
		return [2]metric{{"reportBytes", float64(buf.Len())}, {"allocPct", 100 * rep.Summary.AllocationRate}}
	}
}

// autoscaleSetup bounds the capacity-planning overhead at production
// node count: the 10,000-node seven-day diurnal run with the
// predictive autoscaler planning at every quota tick. The fleet starts
// as 8,000 owned nodes plus a 2,000-node spot pool carried over from
// an earlier scale-up, so one op pays the per-tick forecast
// aggregation and the idle sweep over all 10,000 nodes for a week,
// plus the drain-and-retire bookkeeping as the autoscaler works the
// surplus pool off.
func autoscaleSetup(testing.TB) func() [2]metric {
	scale := sim10KScale()
	tasks := scale.Trace(1)
	cl := gfs.NewCluster("A100", scale.Nodes-2000, scale.GPUsPerNode)
	cl.AddPool(cluster.Pool{Model: "A100", Nodes: 2000,
		GPUsPerNode: scale.GPUsPerNode, Tier: "spot"})
	pol := &gfs.AutoscalePolicy{
		Mode:     gfs.AutoscalePredictive,
		MaxNodes: scale.Nodes,
		Curve:    &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
	}
	eng := gfs.NewEngine(cl,
		gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithAutoscaler(pol))
	return func() [2]metric {
		res := eng.Run(tasks)
		return [2]metric{{"tasks", float64(len(tasks))}, {"allocPct", 100 * res.AllocationRate}}
	}
}

// gfsSetup is the full GFS stack — PTS placement under the GDE/SQA
// quota — over the standard one-day trace, seeded with the
// training-period demand history: the one row whose quota tick
// forecasts (bench/'s paper_gfs times the same path at paper scale).
// The OrgLinear estimator is trained once, outside every op, and
// shared by all of them as RunBatch workers share one.
func gfsSetup(tb testing.TB) benchSetup {
	scale := benchFigScale()
	est, err := scale.TrainEstimator()
	if err != nil {
		tb.Fatal(err)
	}
	return func(testing.TB) func() [2]metric {
		tasks := scale.Trace(2)
		sys := scale.NewGFS(est, experiments.GFSFull, 1)
		eng := gfs.NewEngine(scale.NewCluster(), scale.GFSOptions(sys)...)
		return func() [2]metric {
			res := eng.Run(tasks)
			return [2]metric{{"tasks", float64(len(tasks))}, {"allocPct", 100 * res.AllocationRate}}
		}
	}
}

// trainSetup is one OrgLinear GDE training at benchFigScale, the
// set-up gfsSetup excludes: demand panel, window preparation and every
// Adam step.
func trainSetup(tb testing.TB) func() [2]metric {
	return func() [2]metric {
		if _, err := benchFigScale().TrainEstimator(); err != nil {
			tb.Fatal(err)
		}
		return [2]metric{}
	}
}

// TestAllocCeilings pins the allocations of one measured run of each
// whole-run benchmark, and of one estimator training (trainSetup),
// set-up excluded exactly as runBench's StopTimer excludes it. The
// counts are what the pooled hot path (event records, transactions,
// placement registries), the streaming decoder, the collectors, the
// once-per-Fit window preparation and the autodiff tape that keeps its
// slots across Reset are built to hold; a dropped pool or
// a per-event allocation shows up here on any hardware. Ceilings sit
// at most 2 % above the count measured when they were set: lower one
// when a change removes allocations, and raise one only with the
// reason in CHANGES.md.
func TestAllocCeilings(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under -race, so the counts drift")
			}
		}
	}
	for _, tc := range []struct {
		name    string
		setup   benchSetup
		ceiling uint64
	}{
		{"Sim", simSetup, 737},
		{"Lyra", lyraSetup, 1906},
		{"TraceIngest", traceIngestSetup(gzTrace(t)), 452},
		{"Report", reportSetup, 862},
		{"Sim10K", sim10KSetup, 4881},
		{"Autoscale", autoscaleSetup, 15736},
		// GFS leaves room for one prediction tape regrown (~146
		// allocations) after a garbage collection empties the pool.
		{"GFS", gfsSetup(t), 1533},
		{"Train", trainSetup, 1555},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The first op also pays one-time initialisation
			// (encoding/json's type cache); the second is the count.
			var got uint64
			for range 2 {
				run := tc.setup(t)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				got = after.Mallocs - before.Mallocs
			}
			if got > tc.ceiling {
				t.Fatalf("one run allocates %d times, ceiling %d (+%d)", got, tc.ceiling, got-tc.ceiling)
			}
			t.Logf("one run allocates %d times, ceiling %d", got, tc.ceiling)
		})
	}
}

// BenchmarkSim times simSetup's run.
func BenchmarkSim(b *testing.B) { runBench(b, simSetup) }

// BenchmarkTraceIngest times traceIngestSetup's decode and reports
// its throughput over the compressed bytes.
func BenchmarkTraceIngest(b *testing.B) {
	data := gzTrace(b)
	b.SetBytes(int64(len(data)))
	runBench(b, traceIngestSetup(data))
}

// BenchmarkReport times reportSetup's collected run and export.
func BenchmarkReport(b *testing.B) { runBench(b, reportSetup) }

// BenchmarkSim10K times sim10KSetup's run.
func BenchmarkSim10K(b *testing.B) { runBench(b, sim10KSetup) }

// BenchmarkAutoscale times autoscaleSetup's run. It and
// BenchmarkFederation are the only timings of their paths: bench/ has
// no autoscale or federation workload yet.
func BenchmarkAutoscale(b *testing.B) { runBench(b, autoscaleSetup) }

// BenchmarkFederation measures the federated loop: a two-member
// federation — west under a correlated zone outage, east calm — with
// least-loaded routing and spillover over the one-day trace.
func BenchmarkFederation(b *testing.B) {
	scale := benchFigScale()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := scale.Trace(2)
		storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
			RestoreDomain(9*gfs.Hour, "zone-0")
		west, east := scale.NewCluster(), scale.NewCluster()
		fed := gfs.NewFederation([]gfs.Member{
			{Name: "west", Engine: gfs.NewEngine(west,
				gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithScenario(storm))},
			{Name: "east", Engine: gfs.NewEngine(east,
				gfs.WithScheduler(baselines.NewYARNCS()))},
		})
		b.StartTimer()
		res := fed.Run(tasks)
		if i == b.N-1 {
			b.ReportMetric(float64(res.Migrations), "migrations")
			b.ReportMetric(res.GoodputGPUSeconds/3600, "goodputGPUh")
		}
	}
}
