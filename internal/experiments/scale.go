// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) from the simulation and forecasting stacks.
// Each experiment takes a scale so the identical code runs at test
// speed, benchmark speed, or the paper's full 2,296-GPU setup.
package experiments

import (
	"math/rand"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/core"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/timefeat"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// SimScale sizes a scheduling experiment.
type SimScale struct {
	// Nodes and GPUsPerNode size the cluster.
	Nodes, GPUsPerNode int
	// Days is the trace span.
	Days int
	// HPLoad and SpotLoad are offered loads (fractions of
	// capacity) at spot scale 1.
	HPLoad, SpotLoad float64
	// Seed drives trace generation.
	Seed int64
	// MaxTaskDuration caps runtimes.
	MaxTaskDuration simclock.Duration
	// GDEHistory and GDEHorizon size the estimator (hours).
	GDEHistory, GDEHorizon int
	// TrainDays is the length of the GDE training panel.
	TrainDays int
	// OrgLinearEpochs bounds estimator training time.
	OrgLinearEpochs int
	// GangScale multiplies gang pod counts so distributed job
	// sizes track cluster size (LLM-era workloads).
	GangScale int
	// Zones and RacksPerZone lay a failure-domain topology over the
	// cluster for correlated-failure scenarios; Zones = 0 leaves
	// nodes without domains.
	Zones, RacksPerZone int
}

// SmallScale is the test/bench configuration: a 128-GPU pool over one
// simulated day.
func SmallScale() SimScale {
	return SimScale{
		Nodes: 16, GPUsPerNode: 8, Days: 1,
		// HP averages ~55% with diurnal peaks near 70%, matching
		// the paper's under-allocated clusters; spot at scale
		// 1/2/4 gives total offered loads of 0.65/0.75/0.95 for
		// the low/medium/high regimes.
		HPLoad: 0.55, SpotLoad: 0.10, Seed: 17,
		MaxTaskDuration: 6 * simclock.Hour,
		GDEHistory:      48, GDEHorizon: 4,
		TrainDays: 14, OrgLinearEpochs: 8,
		Zones: 2, RacksPerZone: 4,
	}
}

// MediumScale is the benchmark configuration: a 512-GPU pool over two
// simulated days.
func MediumScale() SimScale {
	s := SmallScale()
	s.Nodes = 64
	s.Days = 2
	return s
}

// PaperScale reproduces the paper's simulation setup: 287 8-card A100
// nodes (2,296 GPUs) over three days.
func PaperScale() SimScale {
	s := SmallScale()
	s.Nodes = 287
	s.Days = 3
	s.GDEHistory = 168
	s.TrainDays = 21
	s.OrgLinearEpochs = 20
	s.GangScale = 4
	s.Zones = 4
	s.RacksPerZone = 8
	return s
}

// orgNames are the trace organizations, matching the Fig. 4 presets.
var orgNames = []string{"OrgA", "OrgB", "OrgC", "OrgD"}

// capacity returns the cluster GPU count.
func (s SimScale) capacity() float64 { return float64(s.Nodes * s.GPUsPerNode) }

// WestEastMembers builds the two-member federation every driver runs
// (gfsim -federation, gfsd federation sessions, the federation
// experiment): "west" takes the storm scenario (nil stays calm) and
// carries the diurnal reclamation forecast, "east" stays calm, both
// on the default reactive GFS stack. Fresh state per call.
func (s SimScale) WestEastMembers(storm *gfs.Scenario) []gfs.Member {
	profile := gfs.DefaultDiurnalProfile("A100")
	return []gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(s.NewCluster(), gfs.WithScenario(storm)), Profile: &profile},
		{Name: "east", Engine: gfs.NewEngine(s.NewCluster())},
	}
}

// NewCluster builds the experiment cluster, laying the scale's
// failure-domain topology over it when Zones > 0.
func (s SimScale) NewCluster() *cluster.Cluster {
	cl := cluster.NewHomogeneous("A100", s.Nodes, s.GPUsPerNode)
	if s.Zones > 0 {
		cl.AssignDomains(s.Zones, s.RacksPerZone)
	}
	return cl
}

// Trace generates the workload at the given spot scale (1/2/4 for the
// paper's low/medium/high).
func (s SimScale) Trace(spotScale float64) []*task.Task {
	return trace.Generate(trace.Config{
		Seed: s.Seed, Days: s.Days,
		ClusterGPUs: s.capacity(),
		HPLoad:      s.HPLoad, SpotLoad: s.SpotLoad, SpotScale: spotScale,
		GPUModel: "A100", Orgs: orgNames,
		MaxDuration: s.MaxTaskDuration,
		GangScale:   s.GangScale,
	})
}

// TrainEstimator fits an OrgLinear-backed GDE on historical per-org
// demand generated by the same workload process as the evaluation
// trace, so the model sees the volatility it must predict.
func (s SimScale) TrainEstimator() (*gde.Estimator, error) {
	est := gde.New(gde.Config{
		History: s.GDEHistory, Horizon: s.GDEHorizon,
		Model: forecast.NewOrgLinear(forecast.OrgLinearConfig{Epochs: s.OrgLinearEpochs}),
	})
	panel := s.demandPanel(s.TrainDays)
	return est, est.Train(panel, 0)
}

// demandPanel derives per-organization hourly HP demand from an
// independent trace of the same process (offered demand: GPUs of
// tasks whose [submit, submit+duration) interval covers the hour).
func (s SimScale) demandPanel(days int) map[string][]float64 {
	tasks := trace.Generate(trace.Config{
		Seed: s.Seed + 9999, Days: days,
		ClusterGPUs: s.capacity(),
		HPLoad:      s.HPLoad, SpotLoad: 0,
		GPUModel: "A100", Orgs: orgNames,
		MaxDuration: s.MaxTaskDuration,
		GangScale:   s.GangScale,
	})
	hours := days * 24
	panel := make(map[string][]float64, len(orgNames))
	for _, o := range orgNames {
		panel[o] = make([]float64, hours)
	}
	for _, tk := range tasks {
		if tk.Type != task.HP {
			continue
		}
		start := int(tk.Submit / simclock.Time(simclock.Hour))
		end := int(tk.Submit.Add(tk.Duration) / simclock.Time(simclock.Hour))
		for h := start; h <= end && h < hours; h++ {
			panel[tk.Org][h] += tk.TotalGPUs()
		}
	}
	return panel
}

// NaiveEstimator builds the GFS-e ablation estimator (previous-week
// peak).
func (s SimScale) NaiveEstimator() (*gde.Estimator, error) {
	est := gde.New(gde.Config{
		History: s.GDEHistory, Horizon: s.GDEHorizon,
		Model: forecast.NaivePeak{},
	})
	return est, est.Train(s.demandPanel(s.TrainDays), 0)
}

// GFSVariant selects an ablation configuration.
type GFSVariant int

const (
	// GFSFull is the complete system.
	GFSFull GFSVariant = iota
	// GFSNaiveForecast replaces GDE with previous-week peak
	// (GFS-e, Table 8).
	GFSNaiveForecast
	// GFSStaticEta pins η = 1 (GFS-d, Table 9).
	GFSStaticEta
	// GFSSimpleScore disables co-location and eviction awareness
	// (GFS-s, Table 10).
	GFSSimpleScore
	// GFSRandomPreempt uses random victim selection (GFS-p).
	GFSRandomPreempt
	// GFSSimpleBoth combines GFS-s and GFS-p (GFS-sp).
	GFSSimpleBoth
)

// NewGFS assembles a GFS system variant with the given guarantee
// hours H.
func (s SimScale) NewGFS(est *gde.Estimator, variant GFSVariant, guaranteeHours int) *core.System {
	opts := core.DefaultOptions()
	opts.Estimator = est
	opts.SQA.H = guaranteeHours
	switch variant {
	case GFSStaticEta:
		opts.DisableEtaFeedback = true
	case GFSSimpleScore:
		opts.PTS.DisableCoLocation = true
		opts.PTS.DisableEvictionAware = true
	case GFSRandomPreempt:
		opts.PTS.RandomPreemption = true
	case GFSSimpleBoth:
		opts.PTS.DisableCoLocation = true
		opts.PTS.DisableEvictionAware = true
		opts.PTS.RandomPreemption = true
	}
	return core.New(opts)
}

// GFSOptions installs a GFS variant on an engine, seeding the quota
// loop with the training-period demand history so forecasts have
// context from hour zero (as production telemetry would provide).
func (s SimScale) GFSOptions(sys *core.System) []gfs.Option {
	return []gfs.Option{
		gfs.WithSystem(sys),
		gfs.WithInitialOrgDemand(s.demandHistory()),
	}
}

// RunGFS simulates a GFS variant over tasks through the Engine API.
// Extra options (observers, scenarios) pass through.
func (s SimScale) RunGFS(sys *core.System, tasks []*task.Task, extra ...gfs.Option) *sched.Result {
	return gfs.NewEngine(s.NewCluster(), append(s.GFSOptions(sys), extra...)...).Run(tasks)
}

// demandHistory returns the tail of the training panel used as
// initial forecast context.
func (s SimScale) demandHistory() map[string][]float64 {
	panel := s.demandPanel(s.TrainDays)
	keep := s.GDEHistory
	for name, series := range panel {
		if len(series) > keep {
			panel[name] = series[len(series)-keep:]
		}
	}
	return panel
}

// RunBaseline simulates any scheduler with an optional quota policy
// through the Engine API.
func (s SimScale) RunBaseline(sc sched.Scheduler, quota sched.QuotaPolicy, tasks []*task.Task, extra ...gfs.Option) *sched.Result {
	opts := []gfs.Option{gfs.WithScheduler(sc), gfs.WithQuota(quota)}
	return gfs.NewEngine(s.NewCluster(), append(opts, extra...)...).Run(tasks)
}

// FcScale sizes forecasting experiments (Fig. 10, Table 7).
type FcScale struct {
	// Weeks of hourly data per organization.
	Weeks int
	// L and H are the history and horizon lengths.
	L, H int
	// DeepEpochs bounds attention/RNN model training.
	DeepEpochs int
	// LinearEpochs bounds OrgLinear/DLinear training.
	LinearEpochs int
	// Seed drives generation.
	Seed int64
}

// SmallFcScale is the test/bench forecasting configuration.
func SmallFcScale() FcScale {
	return FcScale{Weeks: 3, L: 48, H: 6, DeepEpochs: 4, LinearEpochs: 25, Seed: 9}
}

// PaperFcScale uses week-long histories like the paper.
func PaperFcScale() FcScale {
	return FcScale{Weeks: 8, L: 168, H: 24, DeepEpochs: 6, LinearEpochs: 40, Seed: 9}
}

// Panel builds the per-org example sets, split chronologically.
func (f FcScale) Panel() (train, test []forecast.Example) {
	cal := timefeat.NewCalendar()
	presets := org.Presets()
	for i, cfg := range presets {
		rng := rand.New(rand.NewSource(f.Seed + int64(i)*101))
		series := cfg.Series(cal, 0, 24*7*f.Weeks, rng)
		meta := forecast.OrgMeta{OrgID: i, ClusterID: i % 2, ModelID: 0}
		exs := forecast.Windows(series, 0, f.L, f.H, f.H, meta)
		tr, te := forecast.SplitTrainTest(exs, 0.25)
		train = append(train, tr...)
		test = append(test, te...)
	}
	return train, test
}
