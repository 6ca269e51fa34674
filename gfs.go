// Package gfs is the public API of the GFS reproduction: a
// preemption-aware GPU cluster scheduling framework with predictive
// spot instance management (Duan et al., ASPLOS '26).
//
// The package composes three modules mirroring the paper's design
// (Fig. 6):
//
//   - the GPU Demand Estimator (GDE), a probabilistic per-organization
//     demand forecaster built on the OrgLinear model;
//   - the Spot Quota Allocator (SQA), which converts demand forecasts
//     into a time-varying spot GPU quota with an eviction-aware
//     feedback loop;
//   - the Preemptive Task Scheduler (PTS), which places pods with
//     packing, co-location and eviction-awareness scores and preempts
//     spot tasks at minimal cost when HP tasks need GPUs.
//
// A minimal session drives the composable Engine:
//
//	cluster := gfs.NewCluster("A100", 16, 8)
//	tasks := gfs.GenerateTrace(gfs.DefaultTraceConfig())
//	panel := gfs.SyntheticDemandPanel(24*14, 70, 1)
//	est, _ := gfs.TrainEstimator(gfs.EstimatorConfig{
//		History: 48, Horizon: 4, Model: gfs.NewOrgLinearFast(8),
//	}, panel, 0)
//	opts := gfs.DefaultOptions()
//	opts.Estimator = est
//	system := gfs.NewSystem(opts)
//	result := gfs.NewEngine(cluster, gfs.WithSystem(system)).Run(tasks)
//	fmt.Println(result.Spot.EvictionRate)
//
// Engines compose further: WithObserver taps the typed event stream
// (TaskArrived … NodeUp), WithScenario injects timed cluster
// mutations mid-run, and RunBatch fans independent runs out over a
// worker pool. README.md lists every entry point.
package gfs

import (
	"sort"

	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/core"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/timefeat"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// Core simulation types, re-exported for external use.
type (
	// Task is a schedulable unit of work: w pods of g GPUs each.
	Task = task.Task
	// TaskType distinguishes HP from spot tasks.
	TaskType = task.Type
	// TaskState is a task's lifecycle stage.
	TaskState = task.State
	// Cluster is a set of GPU nodes.
	Cluster = cluster.Cluster
	// Node is one machine with a fixed GPU count.
	Node = cluster.Node
	// Scheduler places tasks onto the cluster.
	Scheduler = sched.Scheduler
	// QuotaPolicy computes the spot quota at each update tick.
	QuotaPolicy = sched.QuotaPolicy
	// Result summarizes a simulation.
	Result = sched.Result
	// TaskMetrics summarizes one task class of a Result.
	TaskMetrics = stats.TaskMetrics
	// System bundles the GFS scheduler and quota policy.
	System = core.System
	// Options configures a GFS instance.
	Options = core.Options
	// Estimator serves per-organization demand distributions.
	Estimator = gde.Estimator
	// EstimatorConfig sizes the estimator.
	EstimatorConfig = gde.Config
	// TraceConfig parameterizes workload generation.
	TraceConfig = trace.Config
	// Time is simulated time in seconds since the epoch.
	Time = simclock.Time
	// Duration is a span of simulated time in seconds.
	Duration = simclock.Duration
	// Distributional is a demand forecaster with Gaussian
	// uncertainty, the model an EstimatorConfig trains.
	Distributional = forecast.Distributional
)

// Task types.
const (
	// Spot tasks are preemptible (ζ = 0).
	Spot = task.Spot
	// HP tasks are non-preemptible (ζ = 1).
	HP = task.HP
)

// Task lifecycle states (TaskState values; distinct from the
// TaskArrived…TaskFinished event kinds).
const (
	// StatePending tasks wait in a scheduler queue.
	StatePending = task.Pending
	// StateRunning tasks hold GPUs.
	StateRunning = task.Running
	// StateFinished tasks completed all their work.
	StateFinished = task.Finished
)

// Simulated time units.
const (
	Second = simclock.Second
	Minute = simclock.Minute
	Hour   = simclock.Hour
	Day    = simclock.Day
)

// NewCluster builds a homogeneous cluster of nodes×gpusPerNode GPUs
// of one model, matching the paper's 287×8 A100 simulation pool.
func NewCluster(model string, nodes, gpusPerNode int) *Cluster {
	return cluster.NewHomogeneous(model, nodes, gpusPerNode)
}

// DefaultTraceConfig returns the paper-scale workload settings.
func DefaultTraceConfig() TraceConfig { return trace.Default() }

// GenerateTrace synthesizes a workload matching the paper's trace
// statistics (Table 3).
func GenerateTrace(cfg TraceConfig) []*Task { return trace.Generate(cfg) }

// TraceRegime selects the workload era for trace generation.
type TraceRegime = trace.Regime

// Workload regimes (Fig. 2).
const (
	// Regime2024 is the LLM-era workload (Table 3, Oct 2024).
	Regime2024 = trace.Regime2024
	// Regime2020 is the pre-LLM workload (Jul 2020).
	Regime2020 = trace.Regime2020
)

// TraceStats summarizes a generated trace (Table 3's statistics).
type TraceStats = trace.Stats

// SummarizeTrace computes workload statistics over a trace.
func SummarizeTrace(tasks []*Task) TraceStats { return trace.Summarize(tasks) }

// TrainEstimator creates and trains a demand estimator on an aligned
// panel of per-organization hourly demand series starting at
// startHour.
func TrainEstimator(cfg EstimatorConfig, panel map[string][]float64, startHour int) (*Estimator, error) {
	est := gde.New(cfg)
	if err := est.Train(panel, startHour); err != nil {
		return nil, err
	}
	return est, nil
}

// DefaultOptions returns Table 4's GFS settings (estimator must be
// supplied by the caller for proactive quota management).
func DefaultOptions() Options { return core.DefaultOptions() }

// NewSystem assembles a GFS system (PTS scheduler + GDE/SQA quota).
func NewSystem(opts Options) *System { return core.New(opts) }

// SyntheticDemandPanel generates aligned hourly HP-demand series for
// the paper's four reference organizations (Fig. 4 presets), scaled
// so their combined base demand is totalGPUs. Use it to train an
// Estimator when no production demand history is available.
func SyntheticDemandPanel(hours int, totalGPUs float64, seed int64) map[string][]float64 {
	cal := timefeat.NewCalendar()
	presets := org.Presets()
	panel := org.Panel(presets, cal, 0, hours, seed)
	base := 0.0
	for _, cfg := range presets {
		base += cfg.Base
	}
	factor := totalGPUs / base
	// Scale in sorted-name order; the per-series writes are
	// independent, but the public constructor should not rely on that
	// observation to stay deterministic.
	names := make([]string, 0, len(panel))
	for name := range panel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i := range panel[name] {
			panel[name][i] *= factor
		}
	}
	return panel
}

// NewStaticFirstFit builds the pre-GFS production scheduler: first
// fit under a static spot quota (Fig. 1).
func NewStaticFirstFit() Scheduler { return baselines.NewStaticFirstFit() }

// StaticQuota reserves a fixed fraction of capacity for spot tasks
// (the pre-GFS production policy).
func StaticQuota(fraction float64) QuotaPolicy {
	return sched.StaticQuota{Fraction: fraction}
}

// NewOrgLinearFast builds the paper's OrgLinear forecaster (Fig. 10)
// with the given epoch budget; a small budget suits interactive
// experimentation and tests.
func NewOrgLinearFast(epochs int) Distributional {
	return forecast.NewOrgLinear(forecast.OrgLinearConfig{Epochs: epochs})
}
