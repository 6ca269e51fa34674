package main

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"sort"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// orgNames are the trace organizations of internal/experiments (its
// list is unexported).
var orgNames = []string{"OrgA", "OrgB", "OrgC", "OrgD"}

// paperScale is the paper's §4.2 setup: 287 × 8 A100 over three days.
// The quick profile (smoke test) shrinks it to the small scale on 32
// nodes, the smallest pool on which every baseline finishes every
// task.
func paperScale(quick bool) experiments.SimScale {
	if quick {
		s := experiments.SmallScale()
		s.Nodes = 32
		return s
	}
	return experiments.PaperScale()
}

// prodScale is the paper scale at production size (§4.3): 1,250 nodes
// = 10,000 GPUs.
func prodScale(quick bool) experiments.SimScale {
	s := paperScale(quick)
	if quick {
		s.Nodes = 64
	} else {
		s.Nodes = 1250
	}
	return s
}

// sparseScale copies sim10KScale of the root package's bench_test.go
// (test-only there): 10,000 nodes at 0.29 % allocation over a week.
func sparseScale(quick bool) experiments.SimScale {
	s := experiments.SmallScale()
	s.Nodes = 10000
	s.Days = 7
	s.HPLoad = 0.003
	s.SpotLoad = 0.00075
	s.GangScale = 4
	s.MaxTaskDuration = 24 * simclock.Hour
	if quick {
		s.Nodes = 256
		s.Days = 2
		s.HPLoad = 0.1
		s.SpotLoad = 0.025
	}
	return s
}

// jitter is the half-width of the seeded perturbation of submission
// times.
const jitter = 30 * simclock.Second

// seededTrace generates the scale's reference trace and perturbs it
// with the benchmark seed: every submission moves by a uniform offset
// in [-30 s, +30 s], the trace is re-sorted and IDs are reassigned in
// submission order, as trace.Generate assigns them.
//
// The seed perturbs the reference trace instead of resampling it
// because the contended workload sits at the edge of saturation:
// resampled traces of the same offered load moved its run time from
// 6.3 s to 15.3 s across ten seeds (pending-queue visits 26 M to
// 120 M), which would bury any code change, while the perturbation
// gives a different event interleaving at the same load (queue visits
// within ±4 %). Task counts are those of the reference trace, so they
// match the numbers in README.md.
func seededTrace(s experiments.SimScale, spotScale float64, seed int64) []*task.Task {
	tasks := s.Trace(spotScale)
	rng := rand.New(rand.NewSource(seed))
	for _, tk := range tasks {
		tk.Submit = tk.Submit.Add(simclock.Duration(rng.Int63n(int64(2*jitter+1))) - jitter)
		if tk.Submit < 0 {
			tk.Submit = 0
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Submit < tasks[j].Submit })
	for i, tk := range tasks {
		tk.ID = i + 1
	}
	return tasks
}

// demandPanel reproduces the training panel of
// experiments.SimScale.TrainEstimator (its helper is unexported): the
// per-org hourly HP demand of an independent trace of the same
// process over the scale's training days.
func demandPanel(s experiments.SimScale) map[string][]float64 {
	tasks := trace.Generate(trace.Config{
		Seed: s.Seed + 9999, Days: s.TrainDays,
		ClusterGPUs: float64(s.Nodes * s.GPUsPerNode),
		HPLoad:      s.HPLoad, SpotLoad: 0,
		GPUModel: "A100", Orgs: orgNames,
		MaxDuration: s.MaxTaskDuration,
		GangScale:   s.GangScale,
	})
	hours := s.TrainDays * 24
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

// historyOf cuts the panel to the estimator's history window: what
// experiments.SimScale.RunGFS hands to gfs.WithInitialOrgDemand so
// forecasts have context from hour zero.
func historyOf(s experiments.SimScale, panel map[string][]float64) map[string][]float64 {
	hist := make(map[string][]float64, len(panel))
	for _, o := range orgNames {
		series := panel[o]
		if len(series) > s.GDEHistory {
			series = series[len(series)-s.GDEHistory:]
		}
		hist[o] = series
	}
	return hist
}

// gzipCSV encodes a trace as the gzipped CSV a trace upload or file
// carries.
func gzipCSV(tasks []*task.Task) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gfs.WriteTraceCSV(zw, tasks); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
