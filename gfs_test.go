package gfs_test

import (
	"math/rand"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

func demandPanel() map[string][]float64 {
	cal := timefeat.NewCalendar()
	panel := map[string][]float64{}
	for i, cfg := range org.Presets() {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		s := cfg.Series(cal, 0, 24*7, rng)
		// Scale the ≈75-GPU presets down to the 64-GPU test pool.
		for j := range s {
			s[j] *= 0.1
		}
		panel[cfg.Name] = s
	}
	return panel
}

func TestFacadeEndToEnd(t *testing.T) {
	cl := gfs.NewCluster("A100", 8, 8)
	if cl.TotalGPUs("") != 64 {
		t.Fatalf("capacity %v", cl.TotalGPUs(""))
	}
	cfg := gfs.DefaultTraceConfig()
	cfg.Days = 1
	cfg.ClusterGPUs = 64
	cfg.HPLoad = 0.5
	cfg.SpotLoad = 0.2
	cfg.MaxDuration = 4 * gfs.Hour
	tasks := gfs.GenerateTrace(cfg)
	if len(tasks) == 0 {
		t.Fatal("empty trace")
	}

	est, err := gfs.TrainEstimator(gfs.EstimatorConfig{
		History: 48, Horizon: 4, Model: gfs.NewOrgLinearFast(4),
	}, demandPanel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := gfs.DefaultOptions()
	opts.Estimator = est
	sys := gfs.NewSystem(opts)
	res := gfs.NewEngine(cl, gfs.WithSystem(sys)).Run(tasks)
	if res.HP.Count == 0 || res.Spot.Count == 0 {
		t.Fatal("missing task classes")
	}
	if res.HP.EvictionRate != 0 {
		t.Fatal("HP never evicted")
	}
	if res.AllocationRate <= 0 {
		t.Fatal("allocation rate should be positive")
	}
}

// TestBatchSharesTrainedEstimator: RunBatch workers share one trained
// estimator, so forecasting for organizations it never saw in training
// must only read it, and each run's quota policy and predictive
// autoscaler keep their forecast memos to themselves (CI runs this
// under -race).
func TestBatchSharesTrainedEstimator(t *testing.T) {
	est, err := gfs.TrainEstimator(gfs.EstimatorConfig{
		History: 48, Horizon: 4, Model: gfs.NewOrgLinearFast(4),
	}, demandPanel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	unseen := []string{"UnseenA", "UnseenB"}
	spec := func(name string) gfs.BatchSpec {
		return gfs.BatchSpec{Name: name, Setup: func() (*gfs.Engine, []*gfs.Task) {
			cfg := gfs.DefaultTraceConfig()
			cfg.Days = 1
			cfg.ClusterGPUs = 64
			cfg.MaxDuration = 4 * gfs.Hour
			tasks := gfs.GenerateTrace(cfg)
			for i, tk := range tasks {
				if i%3 == 0 {
					tk.Org = unseen[i/3%len(unseen)]
				}
			}
			opts := gfs.DefaultOptions()
			opts.Estimator = est
			scaler, err := gfs.NamedAutoscaler("predictive")
			if err != nil {
				t.Fatal(err)
			}
			scaler.Estimator = est
			return gfs.NewEngine(gfs.NewCluster("A100", 8, 8), gfs.WithSystem(gfs.NewSystem(opts)),
				gfs.WithInitialOrgDemand(demandPanel()), gfs.WithAutoscaler(scaler)), tasks
		}}
	}
	res := gfs.RunBatch([]gfs.BatchSpec{spec("a"), spec("b")}, gfs.WithWorkers(2))
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	if a, b := res[0].Result, res[1].Result; a.AllocationRate != b.AllocationRate || a.FinalQuota != b.FinalQuota {
		t.Fatalf("identical specs diverged: alloc %v vs %v, quota %v vs %v",
			a.AllocationRate, b.AllocationRate, a.FinalQuota, b.FinalQuota)
	}
}

func TestFacadeBaselines(t *testing.T) {
	for _, s := range []gfs.Scheduler{
		baselines.NewYARNCS(), baselines.NewChronus(), baselines.NewLyra(),
		baselines.NewFGD(), gfs.NewStaticFirstFit(),
	} {
		cl := gfs.NewCluster("A100", 4, 8)
		tasks := []*gfs.Task{
			task.New(1, gfs.HP, 1, 8, gfs.Hour),
			task.New(2, gfs.Spot, 1, 4, 30*gfs.Minute),
		}
		res := gfs.NewEngine(cl, gfs.WithScheduler(s), gfs.WithQuota(sched.UnlimitedQuota{})).Run(tasks)
		if res.UnfinishedHP != 0 || res.UnfinishedSpot != 0 {
			t.Fatalf("%s: unfinished tasks", s.Name())
		}
	}
}

func TestFacadeStaticQuota(t *testing.T) {
	cl := gfs.NewCluster("A100", 2, 8)
	tasks := []*gfs.Task{
		task.New(1, gfs.Spot, 1, 8, 30*gfs.Minute),
		task.New(2, gfs.Spot, 1, 8, 30*gfs.Minute),
	}
	res := gfs.NewEngine(cl, gfs.WithScheduler(gfs.NewStaticFirstFit()), gfs.WithQuota(gfs.StaticQuota(0.5))).Run(tasks)
	if res.UnfinishedSpot != 0 {
		t.Fatal("spot tasks should serialize under the quota, not stall")
	}
	if tasks[1].FirstStart == 0 {
		t.Fatal("quota should defer the second task")
	}
}

func TestFacadeHeterogeneousCluster(t *testing.T) {
	cl := cluster.NewHeterogeneous([]cluster.Pool{
		{Model: "A10", Nodes: 4, GPUsPerNode: 1},
		{Model: "A100", Nodes: 2, GPUsPerNode: 8},
	})
	if cl.TotalGPUs("A10") != 4 || cl.TotalGPUs("A100") != 16 {
		t.Fatal("pool capacities wrong")
	}
	tk := task.New(1, gfs.HP, 1, 8, gfs.Hour)
	tk.GPUModel = "A100"
	res := gfs.NewEngine(cl, gfs.WithScheduler(baselines.NewYARNCS())).Run([]*gfs.Task{tk})
	if res.UnfinishedHP != 0 {
		t.Fatal("model-constrained task should run on the A100 pool")
	}
}

// TestFacadeForecasters: the one forecaster the package builds is
// the paper's OrgLinear, distributional so an estimator can train it.
func TestFacadeForecasters(t *testing.T) {
	var m gfs.Distributional = gfs.NewOrgLinearFast(1)
	if m.Name() != "OrgLinear" {
		t.Fatalf("NewOrgLinearFast builds %s, want OrgLinear", m.Name())
	}
}
