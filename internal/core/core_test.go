package core

import (
	"context"
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/sqa"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/timefeat"
	"github.com/sjtucitlab/gfs/internal/trace"
)

func trainedEstimator(t *testing.T) *gde.Estimator {
	t.Helper()
	est := gde.New(gde.Config{History: 48, Horizon: 4, Model: forecast.NaivePeak{}})
	cal := timefeat.NewCalendar()
	panel := org.Panel(org.Presets(), cal, 0, 24*7, 5)
	if err := est.Train(panel, 0); err != nil {
		t.Fatal(err)
	}
	return est
}

func TestNewDefaults(t *testing.T) {
	sys := New(Options{})
	if sys.Scheduler == nil || sys.Quota == nil {
		t.Fatal("system incomplete")
	}
	if sys.Scheduler.Name() != "GFS" {
		t.Fatalf("name = %s", sys.Scheduler.Name())
	}
	if sys.Quota.Allocator().Eta() != 1.0 {
		t.Fatal("initial η should be 1")
	}
}

func TestQuotaWithoutEstimatorUsesIdle(t *testing.T) {
	sys := New(Options{})
	cl := cluster.NewHomogeneous("A100", 2, 8)
	q := sys.Quota.Quota(&sched.QuotaContext{
		Now: 0, Cluster: cl, SpotGuaranteed: 0,
	})
	// Inventory = capacity, quota = min(capacity·η, idle) = 16.
	if q != 16 {
		t.Fatalf("quota = %v, want 16", q)
	}
}

func TestQuotaWithEstimatorSubtractsDemand(t *testing.T) {
	est := trainedEstimator(t)
	sys := New(Options{Estimator: est})
	cl := cluster.NewHomogeneous("A100", 100, 8) // 800 GPUs
	hist := make([]float64, 48)
	for i := range hist {
		hist[i] = 300 // steady HP demand of 300 GPUs
	}
	q := sys.Quota.Quota(&sched.QuotaContext{
		Now:       simclock.Time(48 * simclock.Hour),
		Cluster:   cl,
		OrgDemand: map[string][]float64{"OrgA": hist},
		HourIndex: 48,
	})
	// NaivePeak forecasts 300; inventory = 800−300 = 500; idle =
	// 800 → quota = 500.
	if math.Abs(q-500) > 1e-6 {
		t.Fatalf("quota = %v, want 500", q)
	}
}

func TestQuotaEtaFeedbackReducesOnEvictions(t *testing.T) {
	est := trainedEstimator(t)
	sys := New(Options{Estimator: est})
	cl := cluster.NewHomogeneous("A100", 10, 8)
	ctx := &sched.QuotaContext{
		Now: simclock.Time(simclock.Hour), Cluster: cl,
		EvictionRate: 0.8, // way above target 0.1
	}
	sys.Quota.Quota(ctx)
	if sys.Quota.Allocator().Eta() >= 1.0 {
		t.Fatalf("η = %v should shrink under high eviction", sys.Quota.Allocator().Eta())
	}
}

func TestQuotaDisableEtaFeedbackPinsEta(t *testing.T) {
	est := trainedEstimator(t)
	sys := New(Options{Estimator: est, DisableEtaFeedback: true})
	cl := cluster.NewHomogeneous("A100", 10, 8)
	ctx := &sched.QuotaContext{
		Now: simclock.Time(simclock.Hour), Cluster: cl,
		EvictionRate: 0.9,
	}
	sys.Quota.Quota(ctx)
	if sys.Quota.Allocator().Eta() != 1.0 {
		t.Fatalf("GFS-d must pin η = 1, got %v", sys.Quota.Allocator().Eta())
	}
}

// runSim runs cfg over tasks as a federation of one, the call every
// engine run makes.
func runSim(t *testing.T, cfg sched.SimConfig, tasks []*task.Task) *sched.Result {
	t.Helper()
	res, err := sched.RunFederationContext(context.Background(), sched.FedConfig{Members: []sched.FedMember{{Cfg: cfg}}}, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Members[0].Result
}

// End-to-end: GFS runs a small trace to completion with sane metrics.
func TestGFSEndToEndSmallTrace(t *testing.T) {
	cfg := trace.Config{
		Seed: 3, Days: 1, ClusterGPUs: 128,
		HPLoad: 0.45, SpotLoad: 0.2, SpotScale: 1,
		GPUModel: "A100", Orgs: []string{"OrgA", "OrgB"},
		MaxDuration: 6 * simclock.Hour,
	}
	tasks := trace.Generate(cfg)
	if len(tasks) == 0 {
		t.Fatal("empty trace")
	}
	est := trainedEstimator(t)
	sys := New(Options{Estimator: est})
	cl := cluster.NewHomogeneous("A100", 16, 8)
	simCfg := sched.DefaultSimConfig(cl, sys.Scheduler)
	simCfg.Quota = sys.Quota
	res := runSim(t, simCfg, tasks)

	if res.HP.Count == 0 || res.Spot.Count == 0 {
		t.Fatal("both classes should be present")
	}
	// HP tasks must essentially all finish (they preempt spot).
	if res.UnfinishedHP > res.HP.Count/20 {
		t.Fatalf("unfinished HP = %d of %d", res.UnfinishedHP, res.HP.Count)
	}
	if res.HP.EvictionRate != 0 {
		t.Fatal("HP eviction rate must be 0")
	}
	if res.AllocationRate <= 0.05 || res.AllocationRate > 1 {
		t.Fatalf("allocation rate %v implausible", res.AllocationRate)
	}
	// GPU capacity conserved at end: everything released or held
	// by running tasks.
	used := cl.UsedGPUs("")
	running := 0.0
	for _, tk := range tasks {
		if tk.State == task.Running {
			running += tk.TotalGPUs()
		}
	}
	if math.Abs(used-running) > 1e-6 {
		t.Fatalf("capacity leak: used %v vs running %v", used, running)
	}
}

// GFS should beat an unquota'd static first-fit on spot eviction rate
// under the same trace — the paper's headline claim, at toy scale.
func TestGFSReducesEvictionsVsStaticFirstFit(t *testing.T) {
	gen := func() []*task.Task {
		return trace.Generate(trace.Config{
			Seed: 11, Days: 1, ClusterGPUs: 128,
			HPLoad: 0.6, SpotLoad: 0.35, SpotScale: 2,
			GPUModel: "A100", Orgs: []string{"OrgA", "OrgB"},
			MaxDuration: 4 * simclock.Hour,
		})
	}
	est := trainedEstimator(t)

	sys := New(Options{Estimator: est})
	gfsCl := cluster.NewHomogeneous("A100", 16, 8)
	gfsCfg := sched.DefaultSimConfig(gfsCl, sys.Scheduler)
	gfsCfg.Quota = sys.Quota
	gfsRes := runSim(t, gfsCfg, gen())

	ffCl := cluster.NewHomogeneous("A100", 16, 8)
	ffRes := runSim(t, sched.DefaultSimConfig(ffCl, staticFF()), gen())

	if gfsRes.Spot.EvictionRate > ffRes.Spot.EvictionRate {
		t.Fatalf("GFS eviction %v should not exceed first-fit %v",
			gfsRes.Spot.EvictionRate, ffRes.Spot.EvictionRate)
	}
	if gfsRes.HP.JCT > ffRes.HP.JCT*1.1 {
		t.Fatalf("GFS HP JCT %v should stay near first-fit %v",
			gfsRes.HP.JCT, ffRes.HP.JCT)
	}
}

// staticFF builds the pre-deployment baseline without importing the
// baselines package (avoiding an import cycle in tests is not an
// issue here, but keeping core's test dependencies minimal is).
func staticFF() sched.Scheduler { return ffSched{} }

type ffSched struct{}

func (ffSched) Name() string { return "first-fit" }

func (ffSched) Less(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	return a.Submit < b.Submit
}

func (ffSched) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	txn := ctx.State.Begin()
	for pod := 0; pod < tk.Pods; pod++ {
		placed := false
		for _, n := range ctx.State.Cluster.NodesOfModel(tk.GPUModel) {
			if n.CanFitPod(tk) {
				if err := txn.Place(n, tk); err == nil {
					placed = true
					break
				}
			}
		}
		if !placed && tk.Type == task.HP {
			for _, n := range ctx.State.Cluster.NodesOfModel(tk.GPUModel) {
				for _, v := range n.SpotTasks() {
					txn.Evict(v)
				}
				if n.CanFitPod(tk) {
					if err := txn.Place(n, tk); err == nil {
						placed = true
						break
					}
				}
			}
		}
		if !placed {
			txn.Rollback()
			return nil, errNoFit{}
		}
	}
	return txn.Commit(), nil
}

type errNoFit struct{}

func (errNoFit) Error() string { return "no fit" }

func TestSQAConfigPropagates(t *testing.T) {
	opts := DefaultOptions()
	opts.SQA = sqa.Config{H: 2}
	sys := New(opts)
	if sys.Quota.Allocator().Config().H != 2 {
		t.Fatal("SQA config not propagated")
	}
}
