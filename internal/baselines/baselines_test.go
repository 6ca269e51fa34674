package baselines

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/opt"
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

func place(t *testing.T, s sched.Scheduler, ctx *sched.Context, tk *task.Task) *sched.Decision {
	t.Helper()
	tk.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, tk)
	if err != nil {
		t.Fatalf("%s: schedule task %d: %v", s.Name(), tk.ID, err)
	}
	tk.Start(ctx.Now)
	return dec
}

func allSchedulers() []sched.Scheduler {
	return []sched.Scheduler{
		NewYARNCS(), NewChronus(), NewLyra(), NewFGD(), NewStaticFirstFit(),
	}
}

func TestAllSchedulersPlaceSimpleTask(t *testing.T) {
	for _, s := range allSchedulers() {
		cl := cluster.NewHomogeneous("A100", 2, 8)
		ctx := newCtx(cl)
		tk := mkTask(1, task.HP, 1, 4)
		dec := place(t, s, ctx, tk)
		if len(dec.PodNodes) != 1 {
			t.Fatalf("%s: pods %d", s.Name(), len(dec.PodNodes))
		}
		if cl.UsedGPUs("") != 4 {
			t.Fatalf("%s: used %v", s.Name(), cl.UsedGPUs(""))
		}
	}
}

func TestAllSchedulersRejectOversized(t *testing.T) {
	for _, s := range allSchedulers() {
		cl := cluster.NewHomogeneous("A100", 1, 8)
		ctx := newCtx(cl)
		tk := mkTask(1, task.HP, 1, 16)
		tk.EnterQueue(ctx.Now)
		if _, err := s.Schedule(ctx, tk); err == nil {
			t.Fatalf("%s: oversized task should fail", s.Name())
		}
		if cl.UsedGPUs("") != 0 {
			t.Fatalf("%s: leaked capacity", s.Name())
		}
	}
}

func TestAllSchedulersFCFSOrder(t *testing.T) {
	for _, s := range allSchedulers() {
		hp := mkTask(1, task.HP, 1, 1)
		spot := mkTask(2, task.Spot, 1, 1)
		hp.Submit, spot.Submit = 100, 0
		if !s.Less(hp, spot) {
			t.Fatalf("%s: HP must come first", s.Name())
		}
		a := mkTask(3, task.HP, 1, 1)
		b := mkTask(4, task.HP, 1, 1)
		a.Submit, b.Submit = 0, 50
		if !s.Less(a, b) {
			t.Fatalf("%s: FCFS violated", s.Name())
		}
	}
}

func TestYARNBestFit(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := NewYARNCS()
	seed := mkTask(1, task.HP, 1, 6)
	place(t, s, ctx, seed)
	seedNode := ctx.State.NodesOf(seed)[0].Node
	// 2-GPU task best-fits onto the nearly full node.
	tk := mkTask(2, task.HP, 1, 2)
	if got := place(t, s, ctx, tk).PodNodes[0]; got != seedNode {
		t.Fatal("best fit should pick the fuller node")
	}
}

func TestYARNPreemptsMostRecentVictims(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := NewYARNCS()
	oldSpot := mkTask(1, task.Spot, 1, 4)
	oldSpot.EnterQueue(0)
	newSpot := mkTask(2, task.Spot, 1, 4)
	newSpot.EnterQueue(0)
	setup := ctx.State.Begin()
	if err := setup.Place(cl.Nodes()[0], oldSpot); err != nil {
		t.Fatal(err)
	}
	if err := setup.Place(cl.Nodes()[0], newSpot); err != nil {
		t.Fatal(err)
	}
	setup.Commit()
	oldSpot.Start(0)
	newSpot.Start(simclock.Time(30 * simclock.Minute))

	hp := mkTask(3, task.HP, 1, 4)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 || dec.Victims[0] != newSpot {
		t.Fatalf("victims = %v, want the most recently started", dec.Victims)
	}
}

func TestChronusRespectsLeases(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := NewChronus()
	spot := mkTask(1, task.Spot, 1, 8)
	place(t, s, ctx, spot) // started at ctx.Now
	// HP arrives 1 minute later: spot's 5-minute lease still
	// running → no preemption.
	ctx2 := &sched.Context{Now: ctx.Now.Add(simclock.Minute), State: ctx.State}
	hp := mkTask(2, task.HP, 1, 8)
	hp.EnterQueue(ctx2.Now)
	if _, err := s.Schedule(ctx2, hp); err == nil {
		t.Fatal("mid-lease preemption must fail")
	}
	// After the lease expires, preemption succeeds.
	ctx3 := &sched.Context{Now: ctx.Now.Add(6 * simclock.Minute), State: ctx.State}
	dec, err := s.Schedule(ctx3, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 {
		t.Fatal("lease-expired victim expected")
	}
}

func TestChronusRuntimeInflation(t *testing.T) {
	s := NewChronus()
	// 1-hour HP task with 20-minute leases: 2 renewals × 2 min.
	hp := mkTask(1, task.HP, 1, 1)
	if got := s.InflateRuntime(hp); got != 4*simclock.Minute {
		t.Fatalf("HP inflation = %v, want 4m", got)
	}
	// Short task within one lease: no overhead.
	short := task.New(2, task.HP, 1, 1, 10*simclock.Minute)
	if got := s.InflateRuntime(short); got != 0 {
		t.Fatalf("short inflation = %v, want 0", got)
	}
	// 1-hour spot task with 5-minute leases: 11 renewals.
	spot := mkTask(3, task.Spot, 1, 1)
	if got := s.InflateRuntime(spot); got != 22*simclock.Minute {
		t.Fatalf("spot inflation = %v, want 22m", got)
	}
}

func TestLyraSpotOnlyOnLoanPool(t *testing.T) {
	// With 4 nodes and a 25% loan fraction, only node 3 is
	// lendable.
	cl := cluster.NewHomogeneous("A100", 4, 8)
	ctx := newCtx(cl)
	s := NewLyra()
	spot := mkTask(1, task.Spot, 1, 4)
	dec := place(t, s, ctx, spot)
	if dec.PodNodes[0].ID != 3 {
		t.Fatalf("spot landed on node %d, want loan-pool node 3", dec.PodNodes[0].ID)
	}
	// Fill the loan pool; the next spot task queues even though
	// reserved nodes sit idle.
	spot2 := mkTask(2, task.Spot, 1, 4)
	place(t, s, ctx, spot2)
	spot3 := mkTask(3, task.Spot, 1, 2)
	spot3.EnterQueue(ctx.Now)
	if _, err := s.Schedule(ctx, spot3); err == nil {
		t.Fatal("loan pool exhausted: spot must queue")
	}
	if cl.IdleGPUs("") != 24 {
		t.Fatalf("idle = %v, want 24 (reserved nodes untouched)", cl.IdleGPUs(""))
	}
}

func TestLyraHPPrefersReservedPool(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 4, 8)
	ctx := newCtx(cl)
	s := NewLyra()
	hp := mkTask(1, task.HP, 1, 4)
	dec := place(t, s, ctx, hp)
	if dec.PodNodes[0].ID == 3 {
		t.Fatal("HP should avoid the loan pool when reserved capacity exists")
	}
}

func TestLyraHPReclaimsLoanPoolLast(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8) // node 1 is the loan pool
	ctx := newCtx(cl)
	s := NewLyra()
	spot := mkTask(1, task.Spot, 1, 8)
	place(t, s, ctx, spot)
	blocker := mkTask(2, task.HP, 1, 8)
	place(t, s, ctx, blocker)
	// Reserved pool full: HP must reclaim the loaned node.
	hp := mkTask(3, task.HP, 1, 8)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 || dec.Victims[0] != spot {
		t.Fatalf("victims = %v, want the loaned training task", dec.Victims)
	}
}

func TestFGDMinimizesFragmentation(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	ctx := newCtx(cl)
	s := NewFGD()
	// Node 0 has 5 idle (frag 1), node 1 has 8 idle (frag 0).
	seed := mkTask(1, task.HP, 1, 3)
	setup := ctx.State.Begin()
	if err := setup.Place(cl.Nodes()[0], seed); err != nil {
		t.Fatal(err)
	}
	setup.Commit()
	// Placing 1 GPU on node 0 → idle 4 → frag 0 (Δ = −1).
	// Placing on node 1 → idle 7 → frag 3 (Δ = +3).
	tk := mkTask(2, task.HP, 1, 1)
	if got := place(t, s, ctx, tk).PodNodes[0]; got != cl.Nodes()[0] {
		t.Fatal("FGD should reduce fragmentation")
	}
}

func TestStaticFirstFitPicksLowestID(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 3, 8)
	ctx := newCtx(cl)
	s := NewStaticFirstFit()
	a := mkTask(1, task.Spot, 1, 4)
	if got := place(t, s, ctx, a).PodNodes[0].ID; got != 0 {
		t.Fatalf("first fit node = %d, want 0", got)
	}
	b := mkTask(2, task.Spot, 1, 8)
	if got := place(t, s, ctx, b).PodNodes[0].ID; got != 1 {
		t.Fatalf("second task node = %d, want 1", got)
	}
}

func TestStaticFirstFitPreempts(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := NewStaticFirstFit()
	spot := mkTask(1, task.Spot, 1, 8)
	place(t, s, ctx, spot)
	hp := mkTask(2, task.HP, 1, 8)
	hp.EnterQueue(ctx.Now)
	dec, err := s.Schedule(ctx, hp)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Victims) != 1 {
		t.Fatal("should preempt the spot task")
	}
}

func TestMinimalVictimsStopsEarly(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	st := sched.NewState(cl)
	a := mkTask(1, task.Spot, 1, 4)
	b := mkTask(2, task.Spot, 1, 4)
	setup := st.Begin()
	if err := setup.Place(cl.Nodes()[0], a); err != nil {
		t.Fatal(err)
	}
	if err := setup.Place(cl.Nodes()[0], b); err != nil {
		t.Fatal(err)
	}
	setup.Commit()
	n := cl.Nodes()[0]
	vs := minimalVictims(n, 4, n.SpotTasks())
	if len(vs) != 1 {
		t.Fatalf("victims = %d, want 1 (4 cards need only one eviction)", len(vs))
	}
	vs = minimalVictims(n, 8, n.SpotTasks())
	if len(vs) != 2 {
		t.Fatalf("victims = %d, want 2", len(vs))
	}
	if vs = minimalVictims(n, 9, n.SpotTasks()); vs != nil {
		t.Fatal("infeasible need should return nil")
	}
}

func TestNames(t *testing.T) {
	want := map[string]bool{"YARN-CS": true, "Chronus": true, "Lyra": true,
		"FGD": true, "StaticFirstFit": true}
	for _, s := range allSchedulers() {
		if !want[s.Name()] {
			t.Fatalf("unexpected name %q", s.Name())
		}
	}
}

// TestMinimalVictimsMatchesMapPath: on random mixed nodes and random
// victim orders, the map-free prefix search returns the prefix the
// map-based one did, agrees with the exhaustive solver on victim
// count bounds, and a node the O(1) reclaimable test rejects is one
// where no order yields a plan.
func TestMinimalVictimsMatchesMapPath(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := cluster.NewHomogeneous("A100", 1, 8).Nodes()[0]
		for id := 1; id <= 10; id++ {
			tk := mkTask(id, task.Type(rng.Intn(2)), 1, []float64{0.25, 0.5, 1, 1, 2, 4}[rng.Intn(6)])
			_ = n.PlacePod(tk) // pods that do not fit are simply absent
		}
		if rng.Intn(8) == 0 {
			n.SetCordoned(true)
		}
		order := n.SpotTasks()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		order = order[:rng.Intn(len(order)+1)] // Chronus offers only expired leases
		for need := 1; need <= 8; need++ {
			var want []*task.Task
			if n.WholeFreeGPUs() >= need {
				want = []*task.Task{}
			} else {
				set := make(map[int]bool)
				for i, v := range order {
					set[v.ID] = true
					if n.WholeFreeGPUsExcluding(set) >= need {
						want = order[:i+1]
						break
					}
				}
			}
			got := minimalVictims(n, need, order)
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("seed %d %v need %d: victims %v, map path %v", seed, n, need, got, want)
			}
			minCount := opt.MinVictimCount(n, need)
			if got != nil && len(got) < minCount {
				t.Fatalf("seed %d %v need %d: %d victims beat the solver's minimum %d", seed, n, need, len(got), minCount)
			}
			if n.ReclaimableGPUs() < need && (got != nil || minCount >= 0) {
				t.Fatalf("seed %d %v need %d: rejected in O(1) yet plannable (%v, solver %d)", seed, n, need, got, minCount)
			}
		}
	}
}

// TestMinimalVictimsMatchesCardWalk: on random nodes whose tenants run
// up to three pods of whole, 1.5-GPU and fractional sizes, the prefix
// search — card counts while the prefix is whole-card, the walk from
// its first fractional tenant on — returns the prefix a card walk of
// every prefix returns.
func TestMinimalVictimsMatchesCardWalk(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := cluster.NewHomogeneous("A100", 1, 8).Nodes()[0]
		for id := 1; id <= 8; id++ {
			tk := mkTask(id, task.Type(rng.Intn(2)), 1, []float64{0.25, 0.5, 0.75, 1, 1, 1.5, 2, 4}[rng.Intn(8)])
			for p := 1 + rng.Intn(3); p > 0; p-- {
				_ = n.PlacePod(tk) // pods that do not fit are simply absent
			}
		}
		if rng.Intn(8) == 0 {
			n.SetCordoned(true)
		}
		order := n.SpotTasks()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for need := 1; need <= 8; need++ {
			var want []*task.Task
			if n.WholeFreeGPUs() >= need {
				want = []*task.Task{}
			}
			for i := 0; want == nil && i < len(order); i++ {
				if n.WholeFreeGPUsWithout(order[:i+1]) >= need {
					want = order[:i+1]
				}
			}
			if got := minimalVictims(n, need, order); (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("seed %d %v need %d: victims %v, card walk %v", seed, n, need, got, want)
			}
		}
	}
}
