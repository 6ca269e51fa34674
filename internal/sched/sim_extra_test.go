package sched

import (
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// rampQuota is an unlimited quota with an admission ramp.
type rampQuota struct{ perPass float64 }

func (rampQuota) Quota(*QuotaContext) float64 { return math.Inf(1) }

func (r rampQuota) MaxAdmitPerPass(capacity float64) float64 { return r.perPass }

func TestAdmissionRampDefersSecondTask(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 30*simclock.Minute, 0),
		mkTask(2, task.Spot, 1, 8, 30*simclock.Minute, 0),
	}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = rampQuota{perPass: 8} // one 8-GPU admission per pass
	res, _ := runSolo(t, cfg, tasks, nil)
	if res.UnfinishedSpot != 0 {
		t.Fatal("ramp must defer, not starve")
	}
	if tasks[0].FirstStart != 0 {
		t.Fatal("first task admitted immediately")
	}
	// Second task waits for the next pass (the 300 s quota tick).
	if tasks[1].FirstStart == 0 {
		t.Fatal("second task should be ramp-deferred")
	}
}

func TestAdmissionRampNeverDeadlocksLargeTask(t *testing.T) {
	// A single task far larger than the per-pass ramp must still be
	// admitted (first admission always proceeds).
	cl := cluster.NewHomogeneous("A100", 2, 8)
	tasks := []*task.Task{mkTask(1, task.Spot, 2, 8, 30*simclock.Minute, 0)}
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = rampQuota{perPass: 1}
	res, _ := runSolo(t, cfg, tasks, nil)
	if res.UnfinishedSpot != 0 {
		t.Fatal("oversized-vs-ramp task must not deadlock")
	}
	if tasks[0].FirstStart != 0 {
		t.Fatal("first admission of a pass always proceeds")
	}
}

func TestShapeCacheAllowsBackfill(t *testing.T) {
	// Two identical oversized tasks ahead of a small task, with a
	// failure budget of 2: the duplicate shape must be skipped
	// without consuming budget so the small task still gets tried.
	cl := cluster.NewHomogeneous("A100", 1, 8)
	blockerA := mkTask(1, task.Spot, 2, 8, simclock.Hour, 0) // needs 2 nodes
	blockerB := mkTask(2, task.Spot, 2, 8, simclock.Hour, 0) // same shape
	small := mkTask(3, task.Spot, 1, 1, 30*simclock.Minute, 0)
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.limits = &limits{grace: paperLimits.grace, maxFailures: 2, idleTimeout: simclock.Hour}
	res, _ := runSolo(t, cfg, []*task.Task{blockerA, blockerB, small}, nil)
	if small.State != task.Finished {
		t.Fatal("small task should backfill past the blocked gang shapes")
	}
	if res.UnfinishedSpot != 2 {
		t.Fatalf("unfinished = %d, want the 2 oversized tasks", res.UnfinishedSpot)
	}
}

func TestInitialOrgDemandSeedsQuotaContext(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tasks := []*task.Task{mkTask(1, task.HP, 1, 1, 20*simclock.Minute, 0)}
	var got map[string][]float64
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.InitialOrgDemand = map[string][]float64{"OrgZ": {1, 2, 3}}
	cfg.Quota = quotaFunc(func(ctx *QuotaContext) float64 {
		got = ctx.OrgDemand
		return math.Inf(1)
	})
	runSolo(t, cfg, tasks, nil)
	if len(got["OrgZ"]) < 3 || got["OrgZ"][0] != 1 || got["OrgZ"][2] != 3 {
		t.Fatalf("seeded history missing: %v", got["OrgZ"])
	}
}

func TestHourlyDemandIsAveraged(t *testing.T) {
	// One HP task running 30 of 60 minutes at 8 GPUs: the hourly
	// average sampled every 300 s should land well below the 8-GPU
	// instantaneous peak.
	cl := cluster.NewHomogeneous("A100", 1, 8)
	tk := mkTask(1, task.HP, 1, 8, 30*simclock.Minute, 0)
	tk.Org = "OrgY"
	// A second arrival past the hour boundary keeps the simulation
	// (and its tick stream) alive long enough to close hour 0.
	later := mkTask(2, task.HP, 1, 1, 10*simclock.Minute, simclock.Time(70*simclock.Minute))
	later.Org = "OrgY"
	var series []float64
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Quota = quotaFunc(func(ctx *QuotaContext) float64 {
		if s := ctx.OrgDemand["OrgY"]; len(s) > 0 {
			series = append([]float64(nil), s...)
		}
		return math.Inf(1)
	})
	runSolo(t, cfg, []*task.Task{tk, later}, nil)
	if len(series) == 0 {
		t.Fatal("no demand recorded")
	}
	if series[0] <= 0 || series[0] >= 8 {
		t.Fatalf("hour-0 average = %v, want within (0, 8)", series[0])
	}
}

// finishesOf returns the TaskFinished events for task id.
func finishesOf(log *EventLog, id int) []Event {
	var out []Event
	for _, e := range log.Filter(TaskFinished) {
		if e.Task.ID == id {
			out = append(out, e)
		}
	}
	return out
}

// TestStaleFinishAfterEvictAndRestart: a task evicted by a node failure
// restarts on the other node before its first run's finish event
// fires. That event must be discarded, and the task must finish once,
// at the new run's end: later than the stale event for a task without
// checkpoints, at the same instant for one that keeps its progress.
func TestStaleFinishAfterEvictAndRestart(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  task.Type
		want simclock.Time
	}{
		{"no checkpoints", task.HP, simclock.Time(150 * simclock.Minute)},
		{"checkpointed", task.Spot, simclock.Time(120 * simclock.Minute)},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := &EventLog{}
			cfg := SimConfig{Cluster: oneNodeRacks(cluster.NewHomogeneous("A100", 2, 8)), Scheduler: &firstFit{}}
			cfg.Observers = []Observer{log}
			cfg.Scenario = []ScenarioAction{rackDown(simclock.Time(30*simclock.Minute), 0)}
			tk := mkTask(1, c.typ, 1, 8, 2*simclock.Hour, 0)
			res, _ := runSolo(t, cfg, []*task.Task{tk}, nil)
			fin := finishesOf(log, 1)
			if len(fin) != 1 || fin[0].At != c.want || tk.FinishedAt != c.want {
				t.Fatalf("finished %d times (%v), at %d; want once at %d", len(fin), fin, tk.FinishedAt, c.want)
			}
			if len(tk.Runs) != 2 || !tk.Runs[0].Evicted || tk.Runs[1].Evicted {
				t.Fatalf("runs %+v, want one evicted run then one completed", tk.Runs)
			}
			if res.UnfinishedHP+res.UnfinishedSpot != 0 {
				t.Fatalf("%d unfinished", res.UnfinishedHP+res.UnfinishedSpot)
			}
		})
	}
}

// TestStaleFinishAfterRoundTrip: a task spills west → east → west. When
// west's first-run finish event fires the task is running on west
// again, and east's fires while it runs on west; both are stale. The
// task finishes once, on west, at its third run's end.
func TestStaleFinishAfterRoundTrip(t *testing.T) {
	westCfg := fedTestConfig(2)
	westCfg.Scenario = []ScenarioAction{rackDown(simclock.Time(30*simclock.Minute), 0)}
	eastCfg := fedTestConfig(2)
	eastCfg.Scenario = []ScenarioAction{rackDown(simclock.Time(60*simclock.Minute), 0)}
	log := &EventLog{}
	tk := mkTask(1, task.HP, 1, 8, 4*simclock.Hour, 0)
	res := runFed(t, FedConfig{
		Members: []FedMember{
			{Name: "west", Cfg: westCfg},
			{Name: "east", Cfg: eastCfg},
		},
		Route:     routeByID{},
		Spill:     SpillLeastLoaded{},
		Observers: []Observer{log},
	}, []*task.Task{tk})
	if res.Migrations != 2 {
		t.Fatalf("%d migrations, want 2", res.Migrations)
	}
	// Back on west after the one-minute migration delay, with no
	// checkpoint to resume from.
	want := simclock.Time(61*simclock.Minute + 4*simclock.Hour)
	fin := finishesOf(log, 1)
	if len(fin) != 1 || fin[0].Member != "west" || fin[0].At != want || tk.FinishedAt != want {
		t.Fatalf("finished %d times (%v); want once on west at %d", len(fin), fin, want)
	}
	if len(tk.Runs) != 3 || res.Unfinished != 0 {
		t.Fatalf("%d runs, %d unfinished; want 3 runs, none unfinished", len(tk.Runs), res.Unfinished)
	}
	if west := res.Member("west"); len(west.Result.Tasks) != 1 || len(res.Member("east").Result.Tasks) != 0 {
		t.Fatalf("the task should be on west's books only")
	}
}

// scriptedScaler retires node 0 at the first tick at or after
// retireAt and orders one 8-GPU node, with no lead, at the first tick
// at or after provisionAt.
type scriptedScaler struct {
	retireAt, provisionAt simclock.Time
	retired, provisioned  bool
}

func (a *scriptedScaler) Plan(ctx *AutoscaleContext) AutoscalePlan {
	var p AutoscalePlan
	if !a.retired && ctx.Now >= a.retireAt {
		a.retired = true
		p.Retire = []int{0}
	}
	if !a.provisioned && ctx.Now >= a.provisionAt {
		a.provisioned = true
		p.Provisions = []Provision{{Pool: cluster.Pool{Model: "A100", Nodes: 1, GPUsPerNode: 8, Tier: "on-demand"}}}
	}
	return p
}

// TestAutoscaleRetireDrainsAndProvisionUnblocks: retirement is a drain
// — the spot task on the retired node is evicted with the drain cause,
// the HP pod beside it runs to completion, and no pod lands on the
// cordoned node, though the evicted spot task would fit there — and a
// provisioned node unblocks an HP task no base node can hold.
func TestAutoscaleRetireDrainsAndProvisionUnblocks(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	hp := mkTask(1, task.HP, 1, 4, 2*simclock.Hour, 0)
	spot := mkTask(2, task.Spot, 1, 4, 2*simclock.Hour, 0)
	blocked := mkTask(3, task.HP, 1, 8, simclock.Hour, 0)
	log := &EventLog{}
	retiredUsed := -1.0
	cordon := ObserverFunc(func(e Event) {
		used := cl.Node(0).UsedGPUs()
		if retiredUsed >= 0 && used > retiredUsed {
			t.Fatalf("node 0 grew from %g to %g GPUs after retirement (%s)", retiredUsed, used, e)
		}
		if e.Kind == NodeRetired || retiredUsed >= 0 {
			retiredUsed = used
		}
	})
	cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{}}
	cfg.Observers = []Observer{log, cordon}
	cfg.Autoscaler = &scriptedScaler{retireAt: simclock.Time(30 * simclock.Minute), provisionAt: simclock.Time(simclock.Hour)}
	res, _ := runSolo(t, cfg, []*task.Task{hp, spot, blocked}, nil)

	if ret := log.Filter(NodeRetired); len(ret) != 1 || ret[0].Node.ID != 0 {
		t.Fatalf("want one NodeRetired for node 0, got %v", ret)
	}
	if evs := log.Filter(TaskEvicted); len(evs) != 1 || evs[0].Task != spot || evs[0].Cause != CauseDrained {
		t.Fatalf("want one drained eviction of the spot task, got %v", evs)
	}
	if hp.Evictions != 0 || hp.FinishedAt != simclock.Time(2*simclock.Hour) {
		t.Fatalf("HP task evicted %d times, finished at %d; want never evicted, done at 2h", hp.Evictions, hp.FinishedAt)
	}
	if prov := log.Filter(NodeProvisioned); len(prov) != 1 || prov[0].Node.ID != 1 {
		t.Fatalf("want one NodeProvisioned for node 1, got %v", prov)
	}
	if blocked.FirstStart < simclock.Time(simclock.Hour) {
		t.Fatalf("8-GPU task started at %d, before its node was provisioned", blocked.FirstStart)
	}
	if res.UnfinishedHP+res.UnfinishedSpot != 0 || !cl.Node(0).Down() {
		t.Fatalf("%d unfinished, node 0 down %v; want all done and node 0 gone", res.UnfinishedHP+res.UnfinishedSpot, cl.Node(0).Down())
	}
}
