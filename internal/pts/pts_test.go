package pts

import (
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

func newCtx(cl *cluster.Cluster) *sched.Context {
	return &sched.Context{
		Now:   simclock.Time(simclock.Hour),
		State: sched.NewState(cl),
	}
}

func mkTask(id int, typ task.Type, pods int, g float64) *task.Task {
	tk := task.New(id, typ, pods, g, simclock.Hour)
	tk.CheckpointEvery = 10 * simclock.Minute
	return tk
}

// place runs a task through the scheduler and starts it.
func place(t *testing.T, s *Scheduler, ctx *sched.Context, tk *task.Task) *sched.Decision {
	t.Helper()
	tk.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, tk)
	if err != nil {
		t.Fatalf("schedule task %d: %v", tk.ID, err)
	}
	tk.Start(ctx.Now)
	return dec
}

func TestLessOrdering(t *testing.T) {
	s := New(DefaultConfig())
	hp := mkTask(1, task.HP, 1, 1)
	spot := mkTask(2, task.Spot, 1, 8)
	if !s.Less(hp, spot) || s.Less(spot, hp) {
		t.Fatal("HP must sort before spot regardless of size")
	}
	big := mkTask(3, task.HP, 1, 8)
	small := mkTask(4, task.HP, 1, 1)
	if !s.Less(big, small) {
		t.Fatal("bigger GPU request first")
	}
	early := mkTask(5, task.HP, 1, 4)
	late := mkTask(6, task.HP, 1, 4)
	early.Submit = 0
	late.Submit = 100
	if !s.Less(early, late) {
		t.Fatal("earlier submission first on ties")
	}
	morePods := mkTask(7, task.HP, 4, 1)
	fewerPods := mkTask(8, task.HP, 2, 2)
	// Equal total GPUs: more pods first.
	if !s.Less(morePods, fewerPods) {
		t.Fatal("more pods first on GPU ties")
	}
}

func TestPackingPrefersUsedNode(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 3, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	// Pre-fill node 1 with an HP task.
	seed := mkTask(1, task.HP, 1, 6)
	place(t, s, ctx, seed)
	seedNode := ctx.State.NodesOf(seed)[0].Node

	// New 2-GPU HP pod should pack onto the same node (Score1).
	tk := mkTask(2, task.HP, 1, 2)
	dec := place(t, s, ctx, tk)
	if dec.PodNodes[0] != seedNode {
		t.Fatalf("packed onto node %d, want %d", dec.PodNodes[0].ID, seedNode.ID)
	}
}

func TestCoLocationSeparatesClasses(t *testing.T) {
	// Seed equal occupancy so Score1 (packing) ties and Score2
	// (co-location) decides: node0 hosts HP(4), node1 hosts
	// spot(4). Fresh cluster per class because any placement
	// breaks the packing tie.
	setupCluster := func() (*sched.Context, *Scheduler, *cluster.Cluster) {
		cl := cluster.NewHomogeneous("A100", 2, 8)
		ctx := newCtx(cl)
		s := New(DefaultConfig())
		hpSeed := mkTask(1, task.HP, 1, 4)
		spotSeed := mkTask(2, task.Spot, 1, 4)
		setup := ctx.State.Begin()
		if err := setup.Place(cl.Nodes()[0], hpSeed); err != nil {
			t.Fatal(err)
		}
		if err := setup.Place(cl.Nodes()[1], spotSeed); err != nil {
			t.Fatal(err)
		}
		setup.Commit()
		return ctx, s, cl
	}
	t.Run("hp joins hp node", func(t *testing.T) {
		ctx, s, cl := setupCluster()
		hp2 := mkTask(3, task.HP, 1, 2)
		if got := place(t, s, ctx, hp2).PodNodes[0]; got != cl.Nodes()[0] {
			t.Fatalf("HP co-location: got node %d, want 0", got.ID)
		}
	})
	t.Run("spot joins spot node", func(t *testing.T) {
		ctx, s, cl := setupCluster()
		spot2 := mkTask(4, task.Spot, 1, 2)
		if got := place(t, s, ctx, spot2).PodNodes[0]; got != cl.Nodes()[1] {
			t.Fatalf("spot co-location: got node %d, want 1", got.ID)
		}
	})
}

func TestEvictionAwarenessSteersClasses(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	hot := cl.Nodes()[0]
	// Heavy recent eviction history on node 0.
	for i := 0; i < 10; i++ {
		hot.RecordEviction(ctx.Now.Add(-10 * simclock.Minute))
	}
	// Spot avoids the hot node (Score3 asymmetric penalty).
	spot := mkTask(1, task.Spot, 1, 4)
	if got := place(t, s, ctx, spot).PodNodes[0]; got == hot {
		t.Fatal("spot should avoid the eviction-prone node")
	}
}

func TestHPPrefersHotNodeOnTies(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	hot := cl.Nodes()[1]
	for i := 0; i < 10; i++ {
		hot.RecordEviction(ctx.Now.Add(-10 * simclock.Minute))
	}
	// Score1 and Score2 tie (both nodes empty): HP picks the node
	// with the higher eviction history.
	hp := mkTask(1, task.HP, 1, 4)
	if got := place(t, s, ctx, hp).PodNodes[0]; got != hot {
		t.Fatal("HP should prefer the eviction-prone node on ties")
	}
}

func TestCircuitBreakerBlacklistsNode(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	s.m = 100 // make Score3 collapse quickly
	hot := cl.Nodes()[0]
	for i := 0; i < 40; i++ {
		hot.RecordEviction(ctx.Now.Add(-5 * simclock.Minute))
	}
	spot := mkTask(1, task.Spot, 1, 8)
	dec := place(t, s, ctx, spot)
	if dec.PodNodes[0] == hot {
		t.Fatal("hot node should be excluded")
	}
	if _, listed := s.blacklist[hot.ID]; !listed {
		t.Fatal("breaker should blacklist the node")
	}
	// Fill the other node; with only the blacklisted node left,
	// spot scheduling fails even though capacity exists.
	spot2 := mkTask(2, task.Spot, 1, 8)
	if _, err := s.Schedule(ctx, spot2); err == nil {
		t.Fatal("blacklisted node must not take spot tasks")
	}
}

func TestPreemptionEvictsSpotForHP(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	spot := mkTask(1, task.Spot, 1, 8)
	place(t, s, ctx, spot)
	hp := mkTask(2, task.HP, 1, 8)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 || dec.Victims[0] != spot {
		t.Fatalf("victims %v", dec.Victims)
	}
	if cl.SpotGPUs("") != 0 || len(dec.PodNodes) != 1 {
		t.Fatal("capacity should move from spot to HP")
	}
}

func TestPreemptionSparesHighWasteVictims(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	// Two spot tasks: old one has high un-checkpointed waste,
	// young one just checkpointed.
	oldSpot := mkTask(1, task.Spot, 1, 4)
	oldSpot.CheckpointEvery = 2 * simclock.Hour // no checkpoint yet
	oldSpot.EnterQueue(0)
	oldSpot.Start(0) // 1h of un-checkpointed work by ctx.Now
	youngSpot := mkTask(2, task.Spot, 1, 4)
	youngSpot.CheckpointEvery = simclock.Minute
	youngSpot.EnterQueue(0)
	youngSpot.Start(0) // waste ≤ 1 minute
	setup := ctx.State.Begin()
	if err := setup.Place(cl.Nodes()[0], oldSpot); err != nil {
		t.Fatal(err)
	}
	if err := setup.Place(cl.Nodes()[0], youngSpot); err != nil {
		t.Fatal(err)
	}
	setup.Commit()

	// HP needs only 4 GPUs: the low-waste victim should go.
	hp := mkTask(3, task.HP, 1, 4)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 || dec.Victims[0] != youngSpot {
		t.Fatalf("victims = %v, want the young (low-waste) task", dec.Victims)
	}
}

func TestPreemptionChoosesCheaperNode(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	// Node 0: one spot task with large waste. Node 1: one spot
	// task just checkpointed.
	costly := mkTask(1, task.Spot, 1, 8)
	costly.CheckpointEvery = 2 * simclock.Hour
	costly.EnterQueue(0)
	costly.Start(0)
	cheap := mkTask(2, task.Spot, 1, 8)
	cheap.CheckpointEvery = simclock.Minute
	cheap.EnterQueue(0)
	cheap.Start(0)
	setup := ctx.State.Begin()
	if err := setup.Place(cl.Nodes()[0], costly); err != nil {
		t.Fatal(err)
	}
	if err := setup.Place(cl.Nodes()[1], cheap); err != nil {
		t.Fatal(err)
	}
	setup.Commit()

	hp := mkTask(3, task.HP, 1, 8)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 || dec.Victims[0] != cheap {
		t.Fatalf("victims = %v, want the cheap node's task", dec.Victims)
	}
	if dec.PodNodes[0] != cl.Nodes()[1] {
		t.Fatal("HP should land on the cheaper node")
	}
}

func TestSpotNeverPreempts(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	hp := mkTask(1, task.HP, 1, 8)
	place(t, s, ctx, hp)
	spot := mkTask(2, task.Spot, 1, 8)
	spot.EnterQueue(ctx.Now)
	if _, err := s.Schedule(ctx, spot); err == nil {
		t.Fatal("spot must not preempt anything")
	}
}

func TestHPNeverEvictsHP(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	hp1 := mkTask(1, task.HP, 1, 8)
	place(t, s, ctx, hp1)
	hp2 := mkTask(2, task.HP, 1, 8)
	hp2.EnterQueue(ctx.Now)
	if _, err := s.Schedule(ctx, hp2); err == nil {
		t.Fatal("HP must not evict HP")
	}
	if hp1.State != task.Running {
		t.Fatal("existing HP task untouched")
	}
}

func TestGangRollbackOnPartialFailure(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	blocker := mkTask(1, task.HP, 1, 8)
	place(t, s, ctx, blocker)
	// 2×8 gang cannot fit (one node occupied); no partial state
	// may remain.
	gang := mkTask(2, task.HP, 2, 8)
	gang.Gang = true
	gang.EnterQueue(ctx.Now)
	if _, err := s.Schedule(ctx, gang); err == nil {
		t.Fatal("gang should fail")
	}
	if cl.UsedGPUs("") != 8 {
		t.Fatalf("used = %v, want 8 (only the blocker)", cl.UsedGPUs(""))
	}
}

func TestGangPreemptsAcrossNodes(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	s1 := mkTask(1, task.Spot, 1, 8)
	s2 := mkTask(2, task.Spot, 1, 8)
	for _, sp := range []*task.Task{s1, s2} {
		place(t, s, ctx, sp)
	}
	gang := mkTask(3, task.HP, 2, 8)
	gang.Gang = true
	gang.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, gang)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 2 {
		t.Fatalf("victims = %d, want 2", len(dec.Victims))
	}
	if len(dec.PodNodes) != 2 || dec.PodNodes[0] == dec.PodNodes[1] {
		t.Fatal("gang pods should span both nodes")
	}
}

func TestFractionalPodScheduling(t *testing.T) {
	cl := cluster.NewHomogeneous("A10", 2, 1)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	a := mkTask(1, task.Spot, 1, 0.5)
	place(t, s, ctx, a)
	b := mkTask(2, task.Spot, 1, 0.4)
	dec := place(t, s, ctx, b)
	// Packing should co-locate the fractions on one card.
	if dec.PodNodes[0] != ctx.State.NodesOf(a)[0].Node {
		t.Fatal("fractional pods should pack")
	}
}

func TestModelConstraintRespected(t *testing.T) {
	cl := cluster.New()
	cl.AddNode(cluster.NewNode(0, "A10", 8))
	cl.AddNode(cluster.NewNode(1, "A100", 8))
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	tk := mkTask(1, task.HP, 1, 4)
	tk.GPUModel = "A100"
	dec := place(t, s, ctx, tk)
	if dec.PodNodes[0].Model != "A100" {
		t.Fatal("model constraint violated")
	}
}

func TestPreemptionCostFormula(t *testing.T) {
	now := simclock.Time(simclock.Hour)
	v := mkTask(1, task.Spot, 1, 2)
	v.CheckpointEvery = 2 * simclock.Hour
	v.EnterQueue(0)
	v.Start(0) // waste = 2 GPUs × 3600 s = 7200
	victims := []*task.Task{v}
	got := preemptionCost(90, 10, len(victims), wasteOf(victims, now), 100_000)
	want := (10.0+1)/(90+10+1) + 0.5*7200/100_000
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", got, want)
	}
	// Empty victim set: only the eviction-history term.
	got = preemptionCost(90, 10, 0, wasteOf(nil, now), 100_000)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("no-victim cost = %v, want 0.1", got)
	}
}

func TestRandomPreemptionAblationDiffers(t *testing.T) {
	// With RandomPreemption the scheduler picks victims by ID, not
	// waste, so the high-waste old task gets evicted.
	cfg := DefaultConfig()
	cfg.RandomPreemption = true
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(cfg)
	oldSpot := mkTask(1, task.Spot, 1, 4) // lower ID → evicted first
	oldSpot.CheckpointEvery = 2 * simclock.Hour
	oldSpot.EnterQueue(0)
	oldSpot.Start(0)
	youngSpot := mkTask(2, task.Spot, 1, 4)
	youngSpot.CheckpointEvery = simclock.Minute
	youngSpot.EnterQueue(0)
	youngSpot.Start(0)
	setup := ctx.State.Begin()
	if err := setup.Place(cl.Nodes()[0], oldSpot); err != nil {
		t.Fatal(err)
	}
	if err := setup.Place(cl.Nodes()[0], youngSpot); err != nil {
		t.Fatal(err)
	}
	setup.Commit()
	hp := mkTask(3, task.HP, 1, 4)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 || dec.Victims[0] != oldSpot {
		t.Fatalf("random (ID-order) preemption should evict the old task, got %v", dec.Victims)
	}
}

func TestVictimSetInfeasibleNode(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	hp := mkTask(1, task.HP, 1, 6)
	place(t, s, ctx, hp)
	// 4 whole cards needed, only 2 free and no spot to evict.
	if vs, ok := s.victimSet(ctx, cl.Nodes()[0], 4); ok {
		t.Fatalf("victimSet = %v, want infeasible", vs)
	}
	// 2 needed: feasible with no victims.
	if vs, ok := s.victimSet(ctx, cl.Nodes()[0], 2); !ok || len(vs) != 0 {
		t.Fatalf("victimSet = %v, %v, want empty and feasible", vs, ok)
	}
}
