package pts

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/opt"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// mapVictimSet is victim selection as it was written over
// WholeFreeGPUsExcluding's map path, the reference the map-free trim
// is differentially tested against. nil means "not a candidate".
func mapVictimSet(now simclock.Time, n *cluster.Node, need int, random bool) []*task.Task {
	spot := n.SpotTasks()
	if len(spot) == 0 {
		if n.WholeFreeGPUs() >= need {
			return []*task.Task{}
		}
		return nil
	}
	all := make(map[int]bool, len(spot))
	for _, v := range spot {
		all[v.ID] = true
	}
	if n.WholeFreeGPUsExcluding(all) < need {
		return nil
	}
	if random {
		set := make(map[int]bool)
		var out []*task.Task
		for _, v := range spot {
			set[v.ID] = true
			out = append(out, v)
			if n.WholeFreeGPUsExcluding(set) >= need {
				break
			}
		}
		return out
	}
	order := append([]*task.Task(nil), spot...)
	sort.Slice(order, func(i, j int) bool {
		if wi, wj := order[i].Waste(now), order[j].Waste(now); wi != wj {
			return wi > wj
		}
		return order[i].ID < order[j].ID
	})
	for _, v := range order {
		all[v.ID] = false
		if n.WholeFreeGPUsExcluding(all) < need {
			all[v.ID] = true
		}
	}
	var out []*task.Task
	for _, v := range spot {
		if all[v.ID] {
			out = append(out, v)
		}
	}
	return out
}

// randomNodes builds a small cluster whose nodes mix whole-card and
// fractional, HP and spot tenants started at assorted times (so waste
// differs, with some exact ties), plus cordoned and down nodes.
func randomNodes(rng *rand.Rand, now simclock.Time) *cluster.Cluster {
	cl := cluster.NewHomogeneous("A100", 6, 8)
	id := 1
	for _, n := range cl.Nodes() {
		for k := rng.Intn(9); k > 0; k-- {
			tk := task.New(id, task.Type(rng.Intn(2)), 1, []float64{0.25, 0.5, 0.5, 1, 1, 2, 4}[rng.Intn(7)], 4*simclock.Hour)
			id++
			tk.CheckpointEvery = simclock.Duration(10+10*rng.Intn(3)) * simclock.Minute
			placed := false
			for p := 1 + rng.Intn(2); p > 0; p-- {
				placed = n.PlacePod(tk) == nil || placed
			}
			if placed {
				tk.EnterQueue(0)
				tk.Start(now - simclock.Time(1+rng.Intn(4))*simclock.Time(7*simclock.Minute))
			}
		}
		switch rng.Intn(8) {
		case 0:
			n.SetCordoned(true)
		case 1:
			for _, tk := range n.Tasks() {
				n.ReleaseTask(tk)
			}
			n.SetDown(true)
		}
	}
	return cl
}

// TestVictimSetMatchesMapPath: on random nodes the O(1) reclaimable
// count equals the map path's evict-everything count and agrees with
// the exhaustive solver on feasibility, and the map-free trim picks
// the victims the map-based trim picked — a feasible, minimal set no
// smaller than the solver's minimum.
func TestVictimSetMatchesMapPath(t *testing.T) {
	now := simclock.Time(2 * simclock.Hour)
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cl := randomNodes(rng, now)
		ctx := &sched.Context{Now: now, State: sched.NewState(cl)}
		for _, random := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.RandomPreemption = random
			s := New(cfg)
			var sc preemptScratch
			for _, n := range cl.Nodes() {
				all := make(map[int]bool)
				for _, v := range n.SpotTasks() {
					all[v.ID] = true
				}
				if got, want := n.ReclaimableGPUs(), n.WholeFreeGPUsExcluding(all); got != want {
					t.Fatalf("seed %d %v: ReclaimableGPUs %d, map path %d", seed, n, got, want)
				}
				for need := 1; need <= 8; need++ {
					minCount := opt.MinVictimCount(n, need)
					if feasible := n.ReclaimableGPUs() >= need; feasible != (minCount >= 0) {
						t.Fatalf("seed %d %v need %d: reclaimable says %v, solver min %d", seed, n, need, feasible, minCount)
					}
					want := mapVictimSet(now, n, need, random)
					got, ok := s.victimSet(ctx, n, need, &sc)
					if ok != (want != nil) || (ok && !slices.Equal(got, want)) {
						t.Fatalf("seed %d %v need %d random=%v: victims %v ok=%v, map path %v", seed, n, need, random, got, ok, want)
					}
					if !ok {
						continue
					}
					if len(got) < minCount {
						t.Fatalf("seed %d %v need %d: %d victims beat the solver's minimum %d", seed, n, need, len(got), minCount)
					}
					if n.WholeFreeGPUsWithout(got) < need {
						t.Fatalf("seed %d %v need %d: victims %v do not free the cards", seed, n, need, got)
					}
					for i := 0; !random && i < len(got); i++ {
						rest := slices.Delete(slices.Clone(got), i, i+1)
						if n.WholeFreeGPUsWithout(rest) >= need {
							t.Fatalf("seed %d %v need %d: victim %v could have been spared", seed, n, need, got[i])
						}
					}
				}
			}
		}
	}
}

// TestPreemptionPlanBoundedByExactSolver: the plan the scan picks
// never beats the exhaustive optimum, and there is none where the
// solver finds none.
func TestPreemptionPlanBoundedByExactSolver(t *testing.T) {
	now := simclock.Time(2 * simclock.Hour)
	for seed := int64(1); seed <= 200; seed++ {
		cl := randomNodes(rand.New(rand.NewSource(seed)), now)
		ctx := &sched.Context{Now: now, State: sched.NewState(cl), G: 40, F: 5}
		s := New(DefaultConfig())
		for _, g := range []float64{1, 2, 4, 8} {
			hp := mkTask(9000, task.HP, 1, g)
			node, victims := s.bestPreemption(ctx, hp, 0)
			exact := opt.ExactPreemption(cl.Nodes(), int(g), ctx.G, ctx.F, s.cfg.Beta, ctx.ElapsedSeconds(), now)
			if exact == nil {
				if node != nil {
					t.Fatalf("seed %d g=%v: plan on %v where the solver finds none", seed, g, node)
				}
				continue
			}
			if node == nil {
				continue // a zero-victim plan on a mixed node is left to the non-preemptive path
			}
			cost := preemptionCost(ctx.G, ctx.F, victims, s.cfg.Beta, float64(node.Capacity())*ctx.ElapsedSeconds(), now)
			if cost < exact.Cost-1e-12 {
				t.Fatalf("seed %d g=%v: plan cost %v beats the exact optimum %v", seed, g, cost, exact.Cost)
			}
		}
	}
}

func TestVictimSetOnLosingNodeAllocatesNothing(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	for id := 1; id <= 8; id++ {
		place(t, s, ctx, mkTask(id, task.Spot, 1, 1))
	}
	ctx.Now = ctx.Now.Add(25 * simclock.Minute)
	n := cl.Nodes()[0]
	var sc preemptScratch
	s.victimSet(ctx, n, 4, &sc) // sizes the scratch
	allocs := testing.AllocsPerRun(100, func() {
		if vs, ok := s.victimSet(ctx, n, 4, &sc); !ok || len(vs) != 4 {
			t.Fatalf("victimSet = %v, %v; want 4 victims", vs, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("victimSet allocates %v times per call, want 0", allocs)
	}
}

// TestPreemptPlanRejectsMostNodesInO1 is the work gate for the O(1)
// reclaimable-cards reject: over a full simulation of PTS on a cluster
// too small for its trace, it settles most of the nodes preemption
// planning visits.
func TestPreemptPlanRejectsMostNodesInO1(t *testing.T) {
	cfg := trace.Default()
	cfg.Seed, cfg.Days, cfg.ClusterGPUs, cfg.SpotScale = 11, 1, 64*8, 4
	cfg.MaxDuration = 6 * simclock.Hour
	s := New(DefaultConfig())
	sched.Run(sched.DefaultSimConfig(cluster.NewHomogeneous("A100", 48, 8), s), trace.Generate(cfg))
	rejected, costed := s.pre.rejected, s.pre.costed
	t.Logf("preemption scan: %d nodes rejected in O(1), %d costed", rejected, costed)
	if costed == 0 || rejected < costed {
		t.Fatalf("rejected %d, costed %d: want a contended run where the O(1) test settles most nodes", rejected, costed)
	}
}

// BenchmarkPreemptPlan1250 plans the eviction of 32 one-card spot
// tasks for a four-node HP gang on a 1,250-node cluster where every
// node is full of spot, then undoes it.
func BenchmarkPreemptPlan1250(b *testing.B) {
	cl := cluster.NewHomogeneous("A100", 1250, 8)
	ctx := newCtx(cl)
	id := 1
	for _, n := range cl.Nodes() {
		for k := 0; k < 8; k++ {
			tk := mkTask(id, task.Spot, 1, 1)
			txn := ctx.State.Begin()
			if err := txn.Place(n, tk); err != nil {
				b.Fatal(err)
			}
			txn.Commit()
			tk.Start(simclock.Time(id % 3600))
			id++
		}
	}
	ctx.Now, ctx.G, ctx.F = simclock.Time(2*simclock.Hour), 1000, 50
	s := New(DefaultConfig())
	gang := mkTask(id, task.HP, 4, 8)
	b.ReportAllocs()
	for b.Loop() {
		dec, err := s.Schedule(ctx, gang)
		if err != nil || len(dec.Victims) != 32 {
			b.Fatalf("plan: %v, %d victims", err, len(dec.Victims))
		}
		ctx.State.ReleaseAll(gang)
		txn := ctx.State.Begin()
		for i, v := range dec.Victims {
			for _, loc := range dec.VictimLocs[i] {
				if err := txn.Place(loc.Node, v); err != nil {
					b.Fatal(err)
				}
			}
		}
		txn.Commit()
	}
}
