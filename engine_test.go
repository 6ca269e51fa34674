package gfs_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// chaosTrace generates a one-day 128-GPU workload with enough spot
// pressure to exercise preemption.
func chaosTrace(seed int64) []*gfs.Task {
	cfg := gfs.DefaultTraceConfig()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.HPLoad = 0.55
	cfg.SpotLoad = 0.25
	cfg.MaxDuration = 6 * gfs.Hour
	return gfs.GenerateTrace(cfg)
}

// chaosCluster is the 16-node test cluster with one node per rack:
// rack r of zone 0 holds node r, so a node fault is a rack op.
func chaosCluster() *gfs.Cluster {
	cl := gfs.NewCluster("A100", 16, 8)
	cl.AssignDomains(1, 16)
	return cl
}

// rack names the one-node rack of node id in chaosCluster.
func rack(id int) string { return cluster.DomainName(0, id) }

// burst is a flat reclamation profile: DiurnalReclamation over one
// interval with it is a single burst taking fraction f.
func burst(f float64) gfs.DiurnalProfile { return gfs.DiurnalProfile{Base: f, Peak: f} }

func chaosScenario() *gfs.Scenario {
	return gfs.NewScenario().
		FailDomain(6*gfs.Hour, rack(3)).FailDomain(6*gfs.Hour, rack(4)).
		RestoreDomain(12*gfs.Hour, rack(3)).RestoreDomain(12*gfs.Hour, rack(4))
}

// runChaos executes the acceptance scenario (2 nodes down at hour 6,
// back at hour 12) and returns the result and event log.
func runChaos(seed int64, extra ...gfs.Option) (*gfs.Result, *sched.EventLog) {
	log := &sched.EventLog{}
	opts := append([]gfs.Option{
		gfs.WithScenario(chaosScenario()),
		gfs.WithObserver(log),
	}, extra...)
	res := gfs.NewEngine(chaosCluster(), opts...).Run(chaosTrace(seed))
	return res, log
}

func TestEngineDefaultsRun(t *testing.T) {
	res := gfs.NewEngine(gfs.NewCluster("A100", 8, 8)).Run(chaosTrace(3))
	if res.HP.Count == 0 || res.Spot.Count == 0 {
		t.Fatal("missing task classes")
	}
	if res.SchedulerName == "" {
		t.Fatal("default engine should install the GFS scheduler")
	}
}

// TestEventLogDeterministic: the same seed and configuration must
// produce a byte-identical ordered event log.
func TestEventLogDeterministic(t *testing.T) {
	_, log1 := runChaos(17)
	_, log2 := runChaos(17)
	if len(log1.Events) == 0 {
		t.Fatal("no events recorded")
	}
	if log1.String() != log2.String() {
		t.Fatal("event logs differ between identical runs")
	}
}

// TestObserverNeutral: registering observers must not change any
// simulation metric.
func TestObserverNeutral(t *testing.T) {
	bare := gfs.NewEngine(chaosCluster(),
		gfs.WithScenario(chaosScenario())).Run(chaosTrace(17))
	observed, log := runChaos(17)
	if len(log.Events) == 0 {
		t.Fatal("no events recorded")
	}
	type headline struct {
		HPJCT, HPJQT, SpotJCT, SpotJQT, Alloc, Waste, Quota float64
		HPEv, SpotEv, UnHP, UnSpot                          int
		End                                                 gfs.Time
	}
	of := func(r *gfs.Result) headline {
		return headline{
			HPJCT: r.HP.JCT, HPJQT: r.HP.JQT,
			SpotJCT: r.Spot.JCT, SpotJQT: r.Spot.JQT,
			Alloc: r.AllocationRate, Waste: r.WastedGPUSeconds,
			Quota: r.FinalQuota,
			HPEv:  r.HP.Evictions, SpotEv: r.Spot.Evictions,
			UnHP: r.UnfinishedHP, UnSpot: r.UnfinishedSpot,
			End: r.End,
		}
	}
	if of(bare) != of(observed) {
		t.Fatalf("observer changed metrics:\nbare     %+v\nobserved %+v", of(bare), of(observed))
	}
}

// TestEvictionEventsMatchResult: every spot eviction counted in the
// result must appear as a TaskEvicted event, task by task.
func TestEvictionEventsMatchResult(t *testing.T) {
	res, log := runChaos(17)
	perTask := map[int]int{}
	spotEvents := 0
	for _, e := range log.Filter(gfs.TaskEvicted) {
		if e.Task.Type == gfs.Spot {
			spotEvents++
			perTask[e.Task.ID]++
		}
	}
	if res.Spot.Evictions == 0 {
		t.Fatal("scenario should force spot evictions")
	}
	if spotEvents != res.Spot.Evictions {
		t.Fatalf("spot TaskEvicted events = %d, Result.Spot.Evictions = %d",
			spotEvents, res.Spot.Evictions)
	}
	for _, tk := range res.Tasks {
		if tk.Type == gfs.Spot && perTask[tk.ID] != tk.Evictions {
			t.Fatalf("task %d: %d eviction events, task counter %d",
				tk.ID, perTask[tk.ID], tk.Evictions)
		}
	}
}

// TestScenarioNodeFailure is the acceptance scenario: two nodes die
// at hour 6 and return at hour 12, emitting NodeDown/NodeUp and
// node-failure TaskEvicted events in order.
func TestScenarioNodeFailure(t *testing.T) {
	res, log := runChaos(17)

	var downs, ups []gfs.Event
	for _, e := range log.Events {
		switch e.Kind {
		case gfs.NodeDown:
			downs = append(downs, e)
		case gfs.NodeUp:
			ups = append(ups, e)
		}
	}
	if len(downs) != 2 || len(ups) != 2 {
		t.Fatalf("got %d NodeDown, %d NodeUp events, want 2 and 2", len(downs), len(ups))
	}
	for _, e := range downs {
		if e.At != gfs.Time(0).Add(6*gfs.Hour) {
			t.Fatalf("NodeDown at t=%d, want hour 6", e.At)
		}
	}
	for _, e := range ups {
		if e.At != gfs.Time(0).Add(12*gfs.Hour) {
			t.Fatalf("NodeUp at t=%d, want hour 12", e.At)
		}
	}
	if downs[0].Node.ID != 3 || downs[1].Node.ID != 4 {
		t.Fatalf("NodeDown order = %d,%d, want 3,4", downs[0].Node.ID, downs[1].Node.ID)
	}
	// Seq must order the whole stream: downs before ups, and any
	// node-failure evictions between the matching NodeDown and the
	// restores.
	if downs[1].Seq <= downs[0].Seq || ups[0].Seq <= downs[1].Seq || ups[1].Seq <= ups[0].Seq {
		t.Fatal("event sequence numbers out of order")
	}
	for _, e := range log.Filter(gfs.TaskEvicted) {
		if e.Cause == gfs.CauseNodeFailure {
			if e.Seq < downs[0].Seq || e.Seq > ups[0].Seq {
				t.Fatalf("node-failure eviction seq=%d outside [down,up] window", e.Seq)
			}
		}
	}
	// Capacity is whole again after the restore.
	if res.End <= gfs.Time(0).Add(12*gfs.Hour) {
		t.Fatalf("run ended at %d, before the restore", res.End)
	}
}

// scriptedScaler retires the nodes in retire at the first quota tick
// at or after retireAt, and orders the pools in provision, with no
// lead, at the first tick at or after provisionAt. Retirement is the
// drain and provisioning the scale-out a program can reach.
type scriptedScaler struct {
	retireAt, provisionAt gfs.Time
	retire                []int
	provision             []cluster.Pool
	retired, provisioned  bool
}

func (a *scriptedScaler) Plan(ctx *gfs.AutoscaleContext) gfs.AutoscalePlan {
	var p gfs.AutoscalePlan
	if !a.retired && len(a.retire) > 0 && ctx.Now >= a.retireAt {
		a.retired = true
		p.Retire = a.retire
	}
	if !a.provisioned && len(a.provision) > 0 && ctx.Now >= a.provisionAt {
		a.provisioned = true
		for _, pool := range a.provision {
			p.Provisions = append(p.Provisions, gfs.Provision{Pool: pool})
		}
	}
	return p
}

// TestScenarioDrainSparesHP: retiring a node drains it — its spot pod
// is evicted with the drain cause, the HP pod beside it runs to
// completion on the cordoned node, and no pod lands there afterwards.
func TestScenarioDrainSparesHP(t *testing.T) {
	cl := gfs.NewCluster("A100", 1, 8)
	tasks := []*gfs.Task{
		task.New(1, gfs.HP, 1, 4, 2*gfs.Hour),
		task.New(2, gfs.Spot, 1, 4, 2*gfs.Hour),
	}
	log := &sched.EventLog{}
	retiredUsed := -1.0
	cordon := gfs.ObserverFunc(func(e gfs.Event) {
		used := cl.Node(0).UsedGPUs()
		if retiredUsed >= 0 && used > retiredUsed {
			t.Fatalf("node 0 grew from %g to %g GPUs after retirement (%s)", retiredUsed, used, e)
		}
		if e.Kind == gfs.NodeRetired || retiredUsed >= 0 {
			retiredUsed = used
		}
	})
	res := gfs.NewEngine(cl,
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithAutoscaler(&scriptedScaler{retireAt: gfs.Time(0).Add(30 * gfs.Minute), retire: []int{0}}),
		gfs.WithObserver(log),
		gfs.WithObserver(cordon),
	).Run(tasks)
	if res.HP.Evictions != 0 {
		t.Fatal("drain must not evict HP pods")
	}
	if res.Spot.Evictions != 1 {
		t.Fatalf("drain should evict the spot task once, got %d", res.Spot.Evictions)
	}
	if got := log.Filter(gfs.TaskEvicted); len(got) != 1 || got[0].Cause != gfs.CauseDrained {
		t.Fatalf("want one drained TaskEvicted event, got %v", got)
	}
	if res.UnfinishedHP != 0 {
		t.Fatal("HP task should finish on the cordoned node")
	}
}

// TestScenarioScaleOut: added capacity unblocks a task that cannot
// fit on the initial cluster.
func TestScenarioScaleOut(t *testing.T) {
	cl := gfs.NewCluster("A100", 1, 8)
	tasks := []*gfs.Task{
		task.New(1, gfs.HP, 1, 8, 4*gfs.Hour),
		task.New(2, gfs.HP, 1, 8, gfs.Hour), // blocked until scale-out
	}
	log := &sched.EventLog{}
	scaler := &scriptedScaler{
		provisionAt: gfs.Time(3600),
		provision:   []cluster.Pool{{Model: "A100", Nodes: 1, GPUsPerNode: 8, Tier: "on-demand"}},
	}
	res := gfs.NewEngine(cl,
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithAutoscaler(scaler),
		gfs.WithObserver(log),
	).Run(tasks)
	if res.UnfinishedHP != 0 {
		t.Fatal("scale-out should unblock the second task")
	}
	prov := log.Filter(gfs.NodeProvisioned)
	if len(prov) != 1 || prov[0].Node.ID != 1 {
		t.Fatalf("want one NodeProvisioned for node 1, got %v", prov)
	}
	if tasks[1].FirstStart < gfs.Time(3600) {
		t.Fatalf("task 2 started at %d, before scale-out", tasks[1].FirstStart)
	}
}

// TestRunBatchDeterministic: a batch sweep must reproduce identical
// per-seed results serially and with 8 workers.
func TestRunBatchDeterministic(t *testing.T) {
	specs := func() []gfs.BatchSpec {
		var out []gfs.BatchSpec
		for seed := int64(1); seed <= 6; seed++ {
			out = append(out, gfs.BatchSpec{
				Name: fmt.Sprintf("seed-%d", seed),
				Setup: func() (*gfs.Engine, []*gfs.Task) {
					eng := gfs.NewEngine(chaosCluster(),
						gfs.WithScenario(chaosScenario()))
					return eng, chaosTrace(seed)
				},
			})
		}
		return out
	}
	serial := gfs.RunBatch(specs(), gfs.WithWorkers(1))
	parallel := gfs.RunBatch(specs(), gfs.WithWorkers(8))
	if len(serial) != 6 || len(parallel) != 6 {
		t.Fatalf("result counts: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("run %s errored: %v / %v", s.Name, s.Err, p.Err)
		}
		if s.Name != p.Name {
			t.Fatalf("order broken at %d: %s vs %s", i, s.Name, p.Name)
		}
		if s.Result.Spot.Evictions != p.Result.Spot.Evictions ||
			s.Result.AllocationRate != p.Result.AllocationRate ||
			s.Result.HP.JCT != p.Result.HP.JCT ||
			s.Result.End != p.Result.End {
			t.Fatalf("run %s differs between worker counts", s.Name)
		}
	}
}

// TestRunBatchRecoversPanics: one bad spec must not kill the sweep.
func TestRunBatchRecoversPanics(t *testing.T) {
	specs := []gfs.BatchSpec{
		{Name: "boom", Setup: func() (*gfs.Engine, []*gfs.Task) { panic("boom") }},
		{Name: "ok", Setup: func() (*gfs.Engine, []*gfs.Task) {
			return gfs.NewEngine(gfs.NewCluster("A100", 2, 8)), chaosTrace(1)[:10]
		}},
	}
	results := gfs.RunBatch(specs, gfs.WithWorkers(2))
	if results[0].Err == nil {
		t.Fatal("panicking spec should surface as an error")
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Fatalf("healthy spec should succeed: %v", results[1].Err)
	}
}

// TestEngineConfigRoundTrip: Engine.Config exposes exactly the
// configuration Engine.Run executes, so driving the simulator core
// with it (as the benchmark's stepwise probes do) reproduces the run.
func TestEngineConfigRoundTrip(t *testing.T) {
	build := func() *gfs.Engine {
		return gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
			gfs.WithScheduler(baselines.NewYARNCS()))
	}
	sim := sched.NewSimulator(build().Config(), chaosTrace(5))
	for sim.Step() {
	}
	got := sim.Finish()
	want := build().Run(chaosTrace(5))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stepping Engine.Config() diverged from Engine.Run:\n got  %+v\n want %+v", got, want)
	}
}

// TestWithShardsIsInert: the deprecated option changes nothing. On a
// cluster big enough that the deleted sharded core would have fanned
// its placement scans out, a WithShards(4) run logs the same events as
// the plain engine and never raises the goroutine count — the engine
// spawns nothing.
func TestWithShardsIsInert(t *testing.T) {
	run := func(extra ...gfs.Option) (string, int) {
		log := &sched.EventLog{}
		peak := 0
		watch := gfs.ObserverFunc(func(gfs.Event) { peak = max(peak, runtime.NumGoroutine()) })
		opts := append([]gfs.Option{gfs.WithObserver(log), gfs.WithObserver(watch)}, extra...)
		gfs.NewEngine(gfs.NewCluster("A100", 1024, 8), opts...).Run(chaosTrace(9))
		return log.String(), peak
	}
	before := runtime.NumGoroutine()
	plain, _ := run()
	sharded, peak := run(gfs.WithShards(4))
	if plain == "" || sharded != plain {
		t.Fatal("WithShards(4) changed the event log")
	}
	if peak > before {
		t.Fatalf("goroutines rose from %d to %d during a WithShards(4) run", before, peak)
	}
}
