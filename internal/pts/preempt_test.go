package pts

import (
	"context"
	"math"
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
					got, ok := s.victimSet(ctx, n, need)
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
			p := s.bestPreemption(ctx, hp, 0)
			exact := opt.ExactPreemption(cl.Nodes(), int(g), ctx.G, ctx.F, beta, ctx.ElapsedSeconds(), now)
			if exact == nil {
				if p.node != nil {
					t.Fatalf("seed %d g=%v: plan on %v where the solver finds none", seed, g, p.node)
				}
				continue
			}
			if p.node == nil {
				continue // a zero-victim plan on a mixed node is left to the non-preemptive path
			}
			ref := preemptionCost(ctx.G, ctx.F, len(p.victims), wasteOf(p.victims, now), float64(p.node.Capacity())*ctx.ElapsedSeconds())
			if math.Float64bits(ref) != math.Float64bits(p.cost) {
				t.Fatalf("seed %d g=%v: plan cost %v, recomputed from its victims %v", seed, g, p.cost, ref)
			}
			if ref < exact.Cost-1e-12 {
				t.Fatalf("seed %d g=%v: plan cost %v beats the exact optimum %v", seed, g, ref, exact.Cost)
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
	s.victimSet(ctx, n, 4) // sizes the workspace
	allocs := testing.AllocsPerRun(100, func() {
		if vs, ok := s.victimSet(ctx, n, 4); !ok || len(vs) != 4 {
			t.Fatalf("victimSet = %v, %v; want 4 victims", vs, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("victimSet allocates %v times per call, want 0", allocs)
	}
}

// planCounts runs one day of PTS at spot scale 4 on 48 eight-card
// nodes, for a trace sized for clusterGPUs cards with gangs scaled by
// gangScale, and returns the planner's node counters.
func planCounts(t *testing.T, clusterGPUs float64, gangScale int) (rejected, costed, reused uint64) {
	cfg := trace.Default()
	cfg.Seed, cfg.Days, cfg.ClusterGPUs, cfg.SpotScale, cfg.GangScale = 11, 1, clusterGPUs, 4, gangScale
	cfg.MaxDuration = 6 * simclock.Hour
	s := New(DefaultConfig())
	solo := sched.FedConfig{Members: []sched.FedMember{{Cfg: sched.SimConfig{Cluster: cluster.NewHomogeneous("A100", 48, 8), Scheduler: s}}}}
	if _, err := sched.RunFederationContext(context.Background(), solo, trace.Generate(cfg), nil); err != nil {
		t.Fatal(err)
	}
	return s.plans.rejected, s.plans.costed, s.plans.reused
}

// TestPreemptPlanRejectsMostNodesInO1 is the work gate for the O(1)
// reclaimable-cards reject and for the plan memo. Over a full
// simulation of PTS on a cluster too small for its trace, the O(1) test
// settles most of the nodes preemption planning visits: more than the
// costed+reused victim sets a planner without the memo would build.
// With production-size gangs, where one gang's pods are planned at one
// instant back to back, the memo serves more than half of those.
func TestPreemptPlanRejectsMostNodesInO1(t *testing.T) {
	rejected, costed, reused := planCounts(t, 64*8, trace.Default().GangScale)
	t.Logf("preemption scan: %d nodes rejected in O(1), %d costed, %d reused", rejected, costed, reused)
	if costed+reused == 0 || rejected < costed+reused {
		t.Fatalf("rejected %d, costed %d, reused %d: want a contended run where the O(1) test settles most nodes", rejected, costed, reused)
	}
	rejected, costed, reused = planCounts(t, 48*8, 4)
	t.Logf("production-size gangs: %d nodes rejected in O(1), %d costed, %d reused", rejected, costed, reused)
	if reused == 0 || 2*costed >= costed+reused {
		t.Fatalf("costed %d, reused %d: want the memo to serve most of the nodes a fresh planner would cost", costed, reused)
	}
}

// TestPreemptPlanAllocatesNothing: once the memo is sized, a plan at a
// new instant allocates nothing, and neither does a plan of the same
// instant on an unchanged cluster, which builds no victim set at all.
func TestPreemptPlanAllocatesNothing(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 64, 8)
	ctx := newCtx(cl)
	for i, n := range cl.Nodes() {
		for k := 0; k < 8; k++ {
			tk := mkTask(8*i+k+1, task.Spot, 1, 1)
			if err := n.PlacePod(tk); err != nil {
				t.Fatal(err)
			}
			tk.Start(simclock.Time((8*i + k) * 37 % 3600))
		}
	}
	s := New(DefaultConfig())
	hp := mkTask(10_000, task.HP, 1, 4)
	plan := func() {
		if p := s.bestPreemption(ctx, hp, 0); p.node == nil || len(p.victims) != 4 {
			t.Fatalf("plan on %v with %d victims, want 4", p.node, len(p.victims))
		}
	}
	plan() // sizes the memo
	costed := s.plans.costed
	if allocs := testing.AllocsPerRun(100, plan); allocs != 0 {
		t.Fatalf("a reused plan allocates %v times, want 0", allocs)
	}
	if s.plans.costed != costed {
		t.Fatalf("plans of one instant on an unchanged cluster costed %d nodes again", s.plans.costed-costed)
	}
	if allocs := testing.AllocsPerRun(100, func() { ctx.Now++; plan() }); allocs != 0 {
		t.Fatalf("a plan at a new instant allocates %v times, want 0", allocs)
	}
}

// benchPreemptPlan1250 plans the eviction of 32 one-card spot tasks
// for a four-node HP gang on a 1,250-node cluster where every node is
// full of spot, then undoes it; advance moves the clock on by a second
// before every plan.
func benchPreemptPlan1250(b *testing.B, advance bool) {
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
		if advance {
			ctx.Now = ctx.Now.Add(simclock.Second)
		}
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

// BenchmarkPreemptPlan1250 keeps the clock still, so after the first
// gang every plan is served from the memo but for the four nodes the
// last gang touched.
func BenchmarkPreemptPlan1250(b *testing.B) { benchPreemptPlan1250(b, false) }

// BenchmarkPreemptPlan1250Advancing plans every gang at a new instant,
// where every node's victim set is built afresh.
func BenchmarkPreemptPlan1250Advancing(b *testing.B) { benchPreemptPlan1250(b, true) }

// trimNode builds one eight-card node for the trim differential. Its
// tenants take shuffled IDs, so ID order is not placement order, and
// assorted start times and checkpoint intervals, so wastes differ with
// some exact ties. Half the nodes hold only whole-card tenants (1, 2,
// 4 and 1.5 GPUs per pod, the last holding one card per pod), where
// the trim is arithmetic; the rest add 0.25, 0.5 and 0.75 fractions,
// where it walks the cards. Tenants are HP or spot; one node in eight
// is cordoned.
func trimNode(rng *rand.Rand, now simclock.Time) *cluster.Node {
	n := cluster.NewHomogeneous("A100", 1, 8).Nodes()[0]
	sizes := []float64{1, 1, 2, 4, 1.5, 0.25, 0.5, 0.75}
	if rng.Intn(2) == 0 {
		sizes = sizes[:5]
	}
	ids := rng.Perm(12)
	for _, id := range ids[:rng.Intn(len(ids))] {
		tk := task.New(100+id, task.Type(rng.Intn(2)), 1, sizes[rng.Intn(len(sizes))], 4*simclock.Hour)
		tk.CheckpointEvery = simclock.Duration(10+10*rng.Intn(3)) * simclock.Minute
		placed := false
		for p := 1 + rng.Intn(3); p > 0; p-- {
			placed = n.PlacePod(tk) == nil || placed
		}
		if placed {
			tk.EnterQueue(0)
			tk.Start(now - simclock.Time(1+rng.Intn(4))*simclock.Time(7*simclock.Minute))
		}
	}
	if rng.Intn(8) == 0 {
		n.SetCordoned(true)
	}
	return n
}

// FuzzVictimTrim: on random nodes the trim victimSet makes — the
// whole-card arithmetic, or the card walk where a spot tenant is
// fractional — returns the victims and ok that walkTrim, the card walk
// alone, returns for every node, for every pod size, waste-aware and
// under the GFS-p ablation.
func FuzzVictimTrim(f *testing.F) {
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(seed)
	}
	now := simclock.Time(2 * simclock.Hour)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for range 8 {
			n := trimNode(rng, now)
			ctx := &sched.Context{Now: now}
			for _, random := range []bool{false, true} {
				s := New(Config{RandomPreemption: random})
				for need := 1; need <= 8; need++ {
					var want []*task.Task
					wantOK := false
					if n.ReclaimableGPUs() >= need {
						want, wantOK = s.walkTrim(now, n, need, n.SpotTasks())
					}
					got, ok := s.victimSet(ctx, n, need)
					if ok != wantOK || !slices.Equal(got, want) {
						t.Fatalf("seed %d %v need %d random=%v: victims %v ok=%v, card walk %v ok=%v",
							seed, n, need, random, got, ok, want, wantOK)
					}
				}
			}
		}
	})
}
