package baselines

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// refBestScored is one pod's placement without the placement index: the
// argmin of score over every schedulable node that passes ok (nil
// admits all) and fits the pod, lowest ID on ties.
func refBestScored(cl *cluster.Cluster, tk *task.Task, ok func(*cluster.Node) bool, score func(*cluster.Node) float64) *cluster.Node {
	var best *cluster.Node
	bestScore := 0.0
	for _, n := range cl.Nodes() {
		if !n.Schedulable() || !n.CanFitPod(tk) || (ok != nil && !ok(n)) {
			continue
		}
		s := score(n)
		if best == nil || s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// refPick pairs a baseline's pick with its placement rule restated from
// its description, not from its code.
type refPick struct {
	name  string
	pick  func(*cluster.Cluster, *task.Task) *cluster.Node
	ok    func(*task.Task) func(*cluster.Node) bool
	score func(*task.Task) func(*cluster.Node) float64
}

func refPicks(cl *cluster.Cluster) []refPick {
	idle := func(*task.Task) func(*cluster.Node) float64 {
		return func(n *cluster.Node) float64 { return n.IdleGPUs() }
	}
	// Lyra's loan pool: the last quarter of each model's nodes by
	// position.
	loanable := func(n *cluster.Node) bool {
		nodes := cl.NodesOfModel(n.Model)
		return slices.Index(nodes, n) >= int(float64(len(nodes))*0.75)
	}
	return []refPick{
		{name: "YARN-CS", pick: NewYARNCS().pick, score: idle},
		{name: "Chronus", pick: NewChronus().pick, score: idle},
		{name: "Lyra", pick: NewLyra().pick,
			ok: func(tk *task.Task) func(*cluster.Node) bool {
				if tk.Type == task.Spot {
					return loanable
				}
				return nil
			},
			score: func(tk *task.Task) func(*cluster.Node) float64 {
				return func(n *cluster.Node) float64 {
					if tk.Type == task.HP && loanable(n) {
						return n.IdleGPUs() + 1000
					}
					return n.IdleGPUs()
				}
			}},
		{name: "FGD", pick: NewFGD().pick, score: func(tk *task.Task) func(*cluster.Node) float64 {
			return func(n *cluster.Node) float64 {
				// Fragmentation reads nothing but the idle-card count, so
				// a fresh node with that many cards stands in for "after".
				after := max(n.WholeFreeGPUs()-tk.PodCards(), 0)
				return cluster.NewNode(0, "", after).Fragmentation() - n.Fragmentation()
			}
		}},
		{name: "StaticFirstFit", pick: NewStaticFirstFit().pick, score: func(*task.Task) func(*cluster.Node) float64 {
			return func(n *cluster.Node) float64 { return float64(n.ID) }
		}},
	}
}

// placementFractions are the pod sizes the placement worlds draw from.
var placementFractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 2, 4}

// placementWorld is a cluster of 8-card A100 and 4-card V100 nodes in
// random ID order, driven straight through the node API: pods of HP
// and spot tasks land on random nodes they fit and leave again, nodes
// go down, come back and are cordoned, and evictions are recorded.
// Sometimes a 1.5-GPU pod lands, which makes the cluster loose.
type placementWorld struct {
	rng    *rand.Rand
	cl     *cluster.Cluster
	picks  []refPick
	now    simclock.Time
	nextID int
	placed []placedPod
	loose  bool // a 1.5-GPU pod has landed
}

type placedPod struct {
	n  *cluster.Node
	tk *task.Task
}

func newPlacementWorld(seed int64) *placementWorld {
	rng := rand.New(rand.NewSource(seed))
	cl := cluster.New()
	for id := range 8 + rng.Intn(24) {
		if rng.Intn(2) == 0 {
			cl.AddNode(cluster.NewNode(id, "A100", 8))
		} else {
			cl.AddNode(cluster.NewNode(id, "V100", 4))
		}
	}
	return &placementWorld{rng: rng, cl: cl, picks: refPicks(cl), now: simclock.Time(simclock.Hour)}
}

func (w *placementWorld) task(typ task.Type, g float64, model string) *task.Task {
	w.nextID++
	tk := task.New(w.nextID, typ, 1, g, simclock.Hour)
	tk.GPUModel = model
	return tk
}

// mutate applies one random step to the world.
func (w *placementWorld) mutate() {
	nodes := w.cl.Nodes()
	n := nodes[w.rng.Intn(len(nodes))]
	switch r := w.rng.Intn(20); {
	case r < 10:
		g := placementFractions[w.rng.Intn(len(placementFractions))]
		if w.rng.Intn(40) == 0 {
			g = 1.5
		}
		tk := w.task(task.Type(w.rng.Intn(2)), g, "")
		if n.CanFitPod(tk) && n.PlacePod(tk) == nil {
			w.placed = append(w.placed, placedPod{n, tk})
			w.loose = w.loose || g == 1.5
		}
	case r < 15:
		if len(w.placed) > 0 {
			i := w.rng.Intn(len(w.placed))
			w.placed[i].n.ReleaseTask(w.placed[i].tk)
			w.placed = slices.Delete(w.placed, i, i+1)
		}
	case r < 16:
		n.SetDown(!n.Down())
	case r < 17:
		n.SetCordoned(!n.Cordoned())
	case r < 19:
		n.RecordEviction(w.now)
	default:
		w.now = w.now.Add(simclock.Duration(w.rng.Intn(4)) * simclock.Hour)
	}
}

// check probes the world with one pod of every size, class and model
// constraint, and compares every baseline's pick with the reference.
func (w *placementWorld) check(t *testing.T) {
	for _, g := range append(placementFractions, 8) {
		for _, typ := range []task.Type{task.HP, task.Spot} {
			for _, model := range []string{"", "A100", "V100"} {
				tk := w.task(typ, g, model)
				for _, p := range w.picks {
					var ok func(*cluster.Node) bool
					if p.ok != nil {
						ok = p.ok(tk)
					}
					if got, want := p.pick(w.cl, tk), refBestScored(w.cl, tk, ok, p.score(tk)); got != want {
						t.Fatalf("%s, pod %v GPUs (%v, model %q): pick %v, reference %v", p.name, g, typ, model, got, want)
					}
				}
			}
		}
	}
}

func diffBaselinePlacement(t *testing.T, seed int64, steps int) *placementWorld {
	w := newPlacementWorld(seed)
	w.check(t)
	for range steps {
		w.mutate()
		w.check(t)
	}
	return w
}

// TestBaselinePlacementMatchesFullScan: through random placements,
// releases, failures, cordons and evictions, on clusters of two models
// and capacities, loose ones among them, every baseline's pick through
// the placement index is the full scan's argmin.
func TestBaselinePlacementMatchesFullScan(t *testing.T) {
	loose := 0
	for seed := int64(1); seed <= 20; seed++ {
		if diffBaselinePlacement(t, seed, 120).loose {
			loose++
		}
	}
	t.Logf("%d of 20 worlds loose", loose)
	if loose == 0 {
		t.Fatal("no world held a 1.5-GPU pod: the loose walk went untested")
	}
}

func FuzzBaselinePlacement(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(60))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) { diffBaselinePlacement(t, seed, int(steps)) })
}

// TestBaselineBoundedVisitWorkGate is the baselines' bounded walk's
// hardware-independent work gate: on 1,250 8-card nodes, 10 with one
// idle card and 1,000 with two, a YARN-CS 1-card pod visits the ten
// fullest nodes and the first of the next bucket at most, finds the
// full scan's node, and allocates nothing.
func TestBaselineBoundedVisitWorkGate(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1250, 8)
	for i, n := range cl.Nodes()[:1010] {
		g := 6.0
		if i < 10 {
			g = 7
		}
		if err := n.PlacePod(mkTask(i+1, task.Type(i%2), 1, g)); err != nil {
			t.Fatal(err)
		}
	}
	idle := (*cluster.Node).IdleGPUs
	for _, typ := range []task.Type{task.HP, task.Spot} {
		tk := mkTask(2000, typ, 1, 1)
		visits := 0
		counted := func(yield func(*cluster.Node, float64) bool) {
			for n, floor := range cl.Candidates(tk) {
				visits++
				if !yield(n, floor) {
					return
				}
			}
		}
		got := bestScored(counted, true, nil, idle)
		if visits > 11 {
			t.Errorf("%v visits %d nodes", tk, visits)
		}
		want := refBestScored(cl, tk, nil, idle)
		if got != want || NewYARNCS().pick(cl, tk) != want {
			t.Errorf("%v: bestScored picks %v, YARN-CS %v, the full scan %v", tk, got, NewYARNCS().pick(cl, tk), want)
		}
		if avg := testing.AllocsPerRun(100, func() { bestScored(cl.Candidates(tk), true, nil, idle) }); avg != 0 {
			t.Errorf("%v: bestScored allocates %v times", tk, avg)
		}
	}
}

// refPlan is one HP pod's preemption plan restated from each baseline's
// description: per node, the shortest prefix of its eviction order
// that frees the pod's cards, each node's order built afresh; the
// cheapest plan wins, lowest node ID on ties.
func refPlan(s sched.Scheduler, cl *cluster.Cluster, now simclock.Time, need int) (*cluster.Node, []*task.Task) {
	var best *cluster.Node
	var victims []*task.Task
	bestCost := 0.0
	for _, n := range cl.Nodes() {
		order := n.SpotTasks() // ID order
		cost := func(v []*task.Task) float64 { return float64(len(v)) }
		switch s.(type) {
		case *YARNCS:
			slices.SortStableFunc(order, func(a, b *task.Task) int { return cmp.Compare(b.StartedAt, a.StartedAt) })
		case *Chronus:
			order = slices.DeleteFunc(order, func(v *task.Task) bool { return now.Sub(v.StartedAt) < 5*simclock.Minute })
		case *Lyra:
			slices.SortStableFunc(order, func(a, b *task.Task) int { return cmp.Compare(n.PodsOf(b.ID), n.PodsOf(a.ID)) })
		case *FGD:
			cost = func([]*task.Task) float64 { return -n.SpotGPUs() }
		case *StaticFirstFit:
			cost = func([]*task.Task) float64 { return float64(n.ID) }
		}
		if v := minimalVictims(n, need, order); v != nil {
			if c := cost(v); best == nil || c < bestCost {
				best, victims, bestCost = n, v, c
			}
		}
	}
	return best, victims
}

// TestPreemptionPlansMatchFreshOrders: every baseline builds its
// victim orders in scheduler scratch, one buffer for the node at hand
// and one for the best plan so far. On random full clusters of HP and
// spot pods started at random times, an HP pod's node and victims are
// those of the reference, whose orders are built afresh per node, over
// a run of tasks through the same scheduler.
func TestPreemptionPlansMatchFreshOrders(t *testing.T) {
	preempted := 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, s := range allSchedulers() {
			rng := rand.New(rand.NewSource(seed))
			cl := cluster.NewHomogeneous("A100", 6, 8)
			ctx := newCtx(cl)
			id := 0
			setup := ctx.State.Begin()
			for _, n := range cl.Nodes() {
				for free := n.WholeFreeGPUs(); free > 0; free = n.WholeFreeGPUs() {
					pods := 1 + rng.Intn(min(free, 2)) // two pods on one node, for Lyra's order
					id++
					tk := mkTask(id, task.Type(min(rng.Intn(3), 1)), pods, float64(min([]int{1, 2, 4}[rng.Intn(3)], free/pods)))
					tk.EnterQueue(0)
					for range pods {
						if err := setup.Place(n, tk); err != nil {
							t.Fatal(err)
						}
					}
					tk.Start(simclock.Time(rng.Intn(60)) * simclock.Time(simclock.Minute))
				}
			}
			setup.Commit()
			for range 4 {
				id++
				hp := mkTask(id, task.HP, 1, float64([]int{1, 2, 4, 8}[rng.Intn(4)]))
				fits := slices.ContainsFunc(cl.Nodes(), func(n *cluster.Node) bool { return n.CanFitPod(hp) })
				wantNode, wantVictims := refPlan(s, cl, ctx.Now, hp.PodCards())
				hp.EnterQueue(ctx.Now)
				dec, err := s.Schedule(ctx, hp)
				if fits {
					continue // placed without preemption
				}
				if wantNode == nil {
					if err == nil {
						t.Fatalf("seed %d %s: placed %v where no plan exists", seed, s.Name(), hp)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d %s: %v: %v; reference lands on %v", seed, s.Name(), hp, err, wantNode)
				}
				if dec.PodNodes[0] != wantNode || !slices.Equal(dec.Victims, wantVictims) {
					t.Fatalf("seed %d %s: %v lands on %v evicting %v; reference %v evicting %v",
						seed, s.Name(), hp, dec.PodNodes[0], dec.Victims, wantNode, wantVictims)
				}
				preempted++
			}
		}
	}
	t.Logf("%d preemptions checked", preempted)
	if preempted < 100 {
		t.Fatal("too few plans were made to vouch for anything")
	}
}
