package sched

import (
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// firstFit is a minimal test scheduler: first node that fits; HP may
// preempt spot tasks in ID order.
type firstFit struct{ preempt bool }

func (f *firstFit) Name() string { return "first-fit" }

func (f *firstFit) Less(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	return a.Submit < b.Submit
}

func (f *firstFit) Schedule(ctx *Context, tk *task.Task) (*Decision, error) {
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
		if !placed && f.preempt && tk.Type == task.HP {
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
			return nil, ErrNoFit
		}
	}
	return txn.Commit(), nil
}

// oneNodeRacks gives every node of cl its own rack, so rack r of zone
// 0 holds node r and a node fault is a rack op.
func oneNodeRacks(cl *cluster.Cluster) *cluster.Cluster {
	cl.AssignDomains(1, len(cl.Nodes()))
	return cl
}

// rackDown and rackUp fail and restore node id through its one-node
// rack (see oneNodeRacks).
func rackDown(at simclock.Time, id int) ScenarioAction {
	return ScenarioAction{At: at, Op: OpDomainDown, Domain: cluster.DomainName(0, id)}
}

func rackUp(at simclock.Time, id int) ScenarioAction {
	return ScenarioAction{At: at, Op: OpDomainUp, Domain: cluster.DomainName(0, id)}
}

var ErrNoFit = errNoFit{}

type errNoFit struct{}

func (errNoFit) Error() string { return "no fit" }

func mkTask(id int, typ task.Type, pods int, g float64, dur simclock.Duration, submit simclock.Time) *task.Task {
	tk := task.New(id, typ, pods, g, dur)
	tk.Submit = submit
	if typ == task.Spot {
		tk.CheckpointEvery = 10 * simclock.Minute
	}
	return tk
}

func TestSimTasksComplete(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{
		mkTask(1, task.HP, 1, 8, simclock.Hour, 0),
		mkTask(2, task.Spot, 1, 4, 30*simclock.Minute, 0),
	}
	res, _ := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{}}, tasks, nil)
	if res.UnfinishedHP != 0 || res.UnfinishedSpot != 0 {
		t.Fatalf("unfinished %d/%d", res.UnfinishedHP, res.UnfinishedSpot)
	}
	if tasks[0].State != task.Finished || tasks[1].State != task.Finished {
		t.Fatal("all tasks should finish")
	}
	if res.HP.JCT != simclock.Hour.Seconds() {
		t.Fatalf("HP JCT = %v, want 3600", res.HP.JCT)
	}
	if res.Spot.EvictionRate != 0 {
		t.Fatal("no evictions expected")
	}
	if res.AllocationRate <= 0 || res.AllocationRate > 1 {
		t.Fatalf("allocation rate %v", res.AllocationRate)
	}
	if res.End <= 0 {
		t.Fatal("end time should advance")
	}
}

func TestSimQueuesWhenFull(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tasks := []*task.Task{
		mkTask(1, task.HP, 1, 8, simclock.Hour, 0),
		mkTask(2, task.HP, 1, 8, simclock.Hour, 0),
	}
	res, _ := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{}}, tasks, nil)
	if res.UnfinishedHP != 0 {
		t.Fatal("both must eventually finish")
	}
	// Second task waited a full hour.
	if tasks[1].JQT() != simclock.Hour {
		t.Fatalf("JQT = %v, want 1h", tasks[1].JQT())
	}
	if res.HP.MaxJQT != simclock.Hour.Seconds() {
		t.Fatalf("MaxJQT = %v", res.HP.MaxJQT)
	}
}

func TestSimPreemptionFlow(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 2*simclock.Hour, 0),
		mkTask(2, task.HP, 1, 8, simclock.Hour, simclock.Time(30*simclock.Minute)),
	}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}
	res, _ := runSolo(t, cfg, tasks, nil)
	spot, hp := tasks[0], tasks[1]
	if hp.State != task.Finished || spot.State != task.Finished {
		t.Fatalf("states: hp=%v spot=%v", hp.State, spot.State)
	}
	if spot.Evictions != 1 {
		t.Fatalf("spot evictions = %d, want 1", spot.Evictions)
	}
	// HP should start after the 30 s grace.
	if hp.FirstStart != simclock.Time(30*simclock.Minute+30*simclock.Second) {
		t.Fatalf("HP start = %d", hp.FirstStart)
	}
	// Spot resumes after HP completes, from its 30-minute
	// checkpoint (progress floor(30m/10m)*10m = 30m).
	if res.Spot.Evictions != 1 {
		t.Fatalf("metrics evictions = %d", res.Spot.Evictions)
	}
	if res.WastedGPUSeconds != 0 {
		// Evicted exactly at a checkpoint boundary: no waste.
		t.Fatalf("waste = %v, want 0", res.WastedGPUSeconds)
	}
	// Eviction rate: spot ran twice (evicted once, finished once).
	if math.Abs(res.Spot.EvictionRate-0.5) > 1e-9 {
		t.Fatalf("eviction rate = %v, want 0.5", res.Spot.EvictionRate)
	}
}

func TestSimWasteAccounting(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 2*simclock.Hour, 0),
		// HP arrives 35 minutes in: 5 minutes past the spot
		// task's 30-minute checkpoint → 8 GPUs × 300 s wasted.
		mkTask(2, task.HP, 1, 8, simclock.Hour, simclock.Time(35*simclock.Minute)),
	}
	res, _ := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}, tasks, nil)
	want := 8 * (5 * simclock.Minute).Seconds()
	if math.Abs(res.WastedGPUSeconds-want) > 1e-9 {
		t.Fatalf("waste = %v, want %v", res.WastedGPUSeconds, want)
	}
}

func TestSimSpotQuotaBlocksAdmission(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 30*simclock.Minute, 0),
		mkTask(2, task.Spot, 1, 8, 30*simclock.Minute, 0),
	}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = StaticQuota{Fraction: 0.5} // 8 of 16 GPUs
	res, _ := runSolo(t, cfg, tasks, nil)
	if res.UnfinishedSpot != 0 {
		t.Fatal("both spot tasks should finish eventually")
	}
	// They cannot run concurrently: the second starts only after
	// the first finishes.
	first, second := tasks[0], tasks[1]
	if second.FirstStart < first.FinishedAt {
		t.Fatalf("quota violated: second started %d before first finished %d",
			second.FirstStart, first.FinishedAt)
	}
}

func TestSimQuotaInitializedBeforeFirstPass(t *testing.T) {
	// The quota is computed before the first scheduling pass, so
	// tasks submitted at t=0 already see it.
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 10*simclock.Minute, 0),
		mkTask(2, task.Spot, 1, 8, 10*simclock.Minute, 0),
	}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = StaticQuota{Fraction: 0.5}
	runSolo(t, cfg, tasks, nil)
	if tasks[0].FirstStart != 0 {
		t.Fatal("first spot task should start immediately")
	}
	if tasks[1].FirstStart == 0 {
		t.Fatal("second spot task must be deferred by the quota")
	}
}

func TestSimGangAtomicity(t *testing.T) {
	// A 2-pod gang task needing 8 GPUs per pod on a cluster where
	// only one node is free: must wait, not partially place.
	cl := cluster.NewHomogeneous("A100", 2, 8)
	blocker := mkTask(1, task.HP, 1, 8, simclock.Hour, 0)
	gang := mkTask(2, task.HP, 2, 8, 30*simclock.Minute, simclock.Time(simclock.Minute))
	gang.Gang = true
	res, _ := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{}}, []*task.Task{blocker, gang}, nil)
	if res.UnfinishedHP != 0 {
		t.Fatal("gang should finish after blocker")
	}
	if gang.FirstStart < blocker.FinishedAt {
		t.Fatal("gang must wait for both nodes")
	}
}

func TestSimDeterminism(t *testing.T) {
	build := func() *Result {
		cl := cluster.NewHomogeneous("A100", 4, 8)
		var tasks []*task.Task
		for i := 0; i < 40; i++ {
			typ := task.Spot
			if i%3 == 0 {
				typ = task.HP
			}
			tasks = append(tasks, mkTask(i+1, typ, 1, float64(1+i%4),
				simclock.Duration(10+i)*simclock.Minute,
				simclock.Time(i)*simclock.Time(simclock.Minute)))
		}
		res, _ := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}, tasks, nil)
		return res
	}
	a, b := build(), build()
	if a.HP.JCT != b.HP.JCT || a.Spot.JCT != b.Spot.JCT ||
		a.Spot.Evictions != b.Spot.Evictions || a.AllocationRate != b.AllocationRate {
		t.Fatal("simulation must be deterministic")
	}
}

func TestSimOrgDemandRecorded(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	var tasks []*task.Task
	for i := 0; i < 8; i++ {
		tk := mkTask(i+1, task.HP, 1, 4, 2*simclock.Hour, simclock.Time(i)*simclock.Time(30*simclock.Minute))
		tk.Org = "OrgX"
		tasks = append(tasks, tk)
	}
	var captured map[string][]float64
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = quotaFunc(func(ctx *QuotaContext) float64 {
		captured = ctx.OrgDemand
		return math.Inf(1)
	})
	runSolo(t, cfg, tasks, nil)
	if len(captured["OrgX"]) == 0 {
		t.Fatal("hourly org demand should be recorded")
	}
	// Demand should be positive while tasks run/queue.
	anyPositive := false
	for _, v := range captured["OrgX"] {
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Fatal("demand series all zero")
	}
}

type quotaFunc func(ctx *QuotaContext) float64

func (f quotaFunc) Quota(ctx *QuotaContext) float64 { return f(ctx) }

func TestSimIdleTimeoutStopsStalledRun(t *testing.T) {
	// A spot task that can never fit (needs 16 GPUs/pod on 8-GPU
	// nodes) must not hang the simulation.
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tasks := []*task.Task{mkTask(1, task.Spot, 1, 16, simclock.Hour, 0)}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.limits = &limits{grace: paperLimits.grace, maxFailures: paperLimits.maxFailures, idleTimeout: 2 * simclock.Hour}
	res, _ := runSolo(t, cfg, tasks, nil)
	if res.UnfinishedSpot != 1 {
		t.Fatalf("unfinished spot = %d, want 1", res.UnfinishedSpot)
	}
}

func TestUnlimitedAndStaticQuota(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := &QuotaContext{Cluster: cl}
	if !math.IsInf(UnlimitedQuota{}.Quota(ctx), 1) {
		t.Fatal("unlimited quota should be +Inf")
	}
	if got := (StaticQuota{Fraction: 0.25}).Quota(ctx); got != 4 {
		t.Fatalf("static quota = %v, want 4", got)
	}
}

// TestUnsortedPreloadKeepsTimeMonotone: a preload out of submission
// order still delivers its events in time order. The quota chain arms
// at the earliest arrival, not at the slice's first task, so no
// QuotaUpdated at 7200 precedes the arrival at 0.
func TestUnsortedPreloadKeepsTimeMonotone(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{
		mkTask(1, task.HP, 1, 4, simclock.Hour, 7200),
		mkTask(2, task.Spot, 1, 4, simclock.Hour, 0),
	}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = UnlimitedQuota{}
	last := simclock.Time(math.MinInt64)
	cfg.Observers = []Observer{ObserverFunc(func(e Event) {
		if e.At < last {
			t.Fatalf("time went back: %d after %d", e.At, last)
		}
		last = e.At
	})}
	res, _ := runSolo(t, cfg, tasks, nil)
	if res.UnfinishedHP != 0 || res.UnfinishedSpot != 0 {
		t.Fatalf("unfinished %d/%d", res.UnfinishedHP, res.UnfinishedSpot)
	}
	if tasks[0].ID != 1 || tasks[1].ID != 2 || res.Tasks[0] != tasks[0] {
		t.Fatal("the caller's slice and the result keep the caller's order")
	}
}
