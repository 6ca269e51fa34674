package pts

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// refBestNode is bestNode as it stood before the cluster's placement
// index: walk every node of the model, filter with CanFitPod, same
// scores, same breaker, same comparator.
func refBestNode(s *Scheduler, ctx *sched.Context, tk *task.Task) *cluster.Node {
	var best scored
	for _, n := range ctx.State.Cluster.NodesOfModel(tk.GPUModel) {
		if !n.CanFitPod(tk) {
			continue
		}
		s1, s2 := s.occupancy(n, tk)
		s3 := s.score3(n.WeightedEvictionRate(ctx.Now, s.cfg.Gamma, s.cfg.ShortWindow, s.cfg.LongWindow), tk.Type)
		if tk.Type == task.Spot && !s.cfg.DisableEvictionAware && tk.GPUsPerPod >= 1 {
			if s3 <= 0 {
				s.tripBreaker(n, ctx.Now)
				continue
			}
			if s.spotBlocked(n, ctx.Now) {
				continue
			}
		}
		cand := scored{node: n, s1: s1, s2: s2, s3: s3}
		if best.node == nil || scoredBetter(&cand, &best) {
			best = cand
		}
	}
	return best.node
}

// fitting collects the cluster's Fitting walk.
func fitting(cl *cluster.Cluster, tk *task.Task) []*cluster.Node {
	var out []*cluster.Node
	for n := range cl.Fitting(tk) {
		out = append(out, n)
	}
	return out
}

// refBestScored is the baselines' bestScored as it stood before the
// index: the argmin of score over the nodes that pass ok and
// CanFitPod, lowest ID on ties.
func refBestScored(cl *cluster.Cluster, tk *task.Task, ok func(*cluster.Node) bool, score func(*cluster.Node) float64) *cluster.Node {
	var best *cluster.Node
	bestScore := 0.0
	for _, n := range cl.NodesOfModel(tk.GPUModel) {
		if (ok != nil && !ok(n)) || !n.CanFitPod(tk) {
			continue
		}
		s := score(n)
		if best == nil || s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// refBaseline pairs a baseline scheduler with its non-preemptive
// placement rule restated from its description, not from its code.
type refBaseline struct {
	sched sched.Scheduler
	ok    func(*task.Task) func(*cluster.Node) bool
	score func(*task.Task) func(*cluster.Node) float64
}

func refBaselines(cl *cluster.Cluster) []refBaseline {
	idle := func(*task.Task) func(*cluster.Node) float64 {
		return func(n *cluster.Node) float64 { return n.IdleGPUs() }
	}
	// Lyra's loan pool, the way loanable used to find it: the last
	// quarter of the model's nodes by position.
	loanable := func(n *cluster.Node) bool {
		nodes := cl.NodesOfModel(n.Model)
		return slices.Index(nodes, n) >= int(float64(len(nodes))*0.75)
	}
	return []refBaseline{
		{sched: baselines.NewYARNCS(), score: idle},
		{sched: baselines.NewChronus(), score: idle},
		{sched: baselines.NewStaticFirstFit(), score: func(*task.Task) func(*cluster.Node) float64 {
			return func(n *cluster.Node) float64 { return float64(n.ID) }
		}},
		{sched: baselines.NewFGD(), score: func(tk *task.Task) func(*cluster.Node) float64 {
			return func(n *cluster.Node) float64 {
				// Fragmentation reads nothing but the idle-card count, so
				// a fresh node with that many cards stands in for "after".
				after := max(n.WholeFreeGPUs()-tk.PodCards(), 0)
				return cluster.NewNode(0, "", after).Fragmentation() - n.Fragmentation()
			}
		}},
		{sched: baselines.NewLyra(),
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
	}
}

// kernelConfigs is Table 4 with a penalty steep enough that a single
// fresh eviction trips the breaker, once plain and once under each
// ablation switch, plus Table 4 itself, and Table 4 with a penalty at
// which three fresh evictions on one node trip it: under the steep one
// bestNode's breaker guard is on from the first eviction, under Table
// 4's never, and under this one it turns on mid-run.
func kernelConfigs() []Config {
	steep, three := DefaultConfig(), DefaultConfig()
	steep.PenaltyM, three.PenaltyM = 130, 43
	cfgs := []Config{steep, steep, steep, steep, DefaultConfig(), three}
	cfgs[1].DisableCoLocation = true
	cfgs[2].DisableEvictionAware = true
	cfgs[3].RandomPreemption = true
	return cfgs
}

// kernelWorld is one cluster driven through random mutations, with
// every PTS configuration instantiated twice: kern schedules through
// the placement index, ref through refBestNode. Each pair sees the same
// calls, so their breaker blacklists must stay equal. GPU requests are
// multiples of 1/4, whose sums are exact: a rolled-back or released
// probe leaves every float as it found it, and reference and kernel
// always read the same state.
type kernelWorld struct {
	t         *testing.T
	rng       *rand.Rand
	cl        *cluster.Cluster
	ctx       *sched.Context
	kern, ref []*Scheduler
	bases     []refBaseline
	live      []*task.Task
	nextID    int
	// What the run exercised: reference outcomes by kind, and the
	// largest blacklist seen.
	placed, failed, preempted, tripped int
}

var (
	kernelModels = []string{"A100", "H800", ""}
	kernelSizes  = []float64{0.25, 0.5, 0.75, 1, 2, 4, 8}
)

func newKernelWorld(t *testing.T, seed int64) *kernelWorld {
	rng := rand.New(rand.NewSource(seed))
	cl := cluster.New()
	// Two models, two capacities, IDs in no order.
	for i, id := range rng.Perm(16) {
		cl.AddNode(cluster.NewNode(id, kernelModels[i%2], []int{8, 4}[i/2%2]))
	}
	w := &kernelWorld{t: t, rng: rng, cl: cl, nextID: 1, bases: refBaselines(cl)}
	w.ctx = &sched.Context{Now: simclock.Time(simclock.Hour), State: sched.NewState(cl), G: 100, F: 5}
	for _, cfg := range kernelConfigs() {
		w.kern, w.ref = append(w.kern, New(cfg)), append(w.ref, New(cfg))
	}
	return w
}

func (w *kernelWorld) newTask(typ task.Type, pods int, g float64, model string) *task.Task {
	tk := task.New(w.nextID, typ, pods, g, 4*simclock.Hour)
	w.nextID++
	tk.GPUModel = model
	tk.CheckpointEvery = simclock.Duration(10+10*w.rng.Intn(3)) * simclock.Minute
	return tk
}

// randomTask draws a task that may stay in the world. Its spot
// fractions are all one half: Txn.Rollback re-places victims wherever
// they now pack best, which for mixed fractions can need a card more
// than they held (a planner rolling back after evicting 0.75 + 0.25
// twice panics at HEAD and before) — not this test's subject.
func (w *kernelWorld) randomTask() *task.Task {
	typ, g := task.Type(w.rng.Intn(2)), kernelSizes[w.rng.Intn(len(kernelSizes))]
	if typ == task.Spot && g < 1 {
		g = 0.5
	}
	return w.newTask(typ, 1+w.rng.Intn(3), g, kernelModels[w.rng.Intn(len(kernelModels))])
}

// evicted books an eviction the way the simulator does.
func (w *kernelWorld) evicted(v *task.Task, locs []sched.NodePods) {
	v.Evict(w.ctx.Now)
	if v.Type == task.Spot {
		for _, np := range locs {
			np.Node.RecordEviction(w.ctx.Now)
		}
	}
	w.live = slices.DeleteFunc(w.live, func(l *task.Task) bool { return l == v })
}

// refPlace is Algorithm 1's pod loop over a reference pick, rolled
// back whatever the outcome: it returns the node ID of every pod and
// whether all of them found one.
func (w *kernelWorld) refPlace(tk *task.Task, pick func() *cluster.Node) ([]int, bool) {
	txn := w.ctx.State.Begin()
	defer txn.Rollback()
	var ids []int
	for pod := 0; pod < tk.Pods; pod++ {
		n := pick()
		if n == nil {
			return ids, false
		}
		if err := txn.Place(n, tk); err != nil {
			w.t.Fatalf("reference picked %v for %v: %v", n, tk, err)
		}
		ids = append(ids, n.ID)
	}
	return ids, true
}

// schedule runs tk through s for real and checks the outcome against
// the reference's non-preemptive placement: the same nodes in the same
// order and no victim when the reference placed every pod, otherwise a
// failure or a preemption. keep leaves the task running; a probe is
// released again.
func (w *kernelWorld) schedule(s sched.Scheduler, tk *task.Task, pick func() *cluster.Node, keep bool) {
	want, fits := w.refPlace(tk, pick)
	if !fits && tk.Type == task.HP && !keep {
		return // the real call would preempt, and a probe must not
	}
	dec, err := s.Schedule(w.ctx, tk)
	switch {
	case fits:
		w.placed++
	case err != nil:
		w.failed++
	default:
		w.preempted++
	}
	if fits {
		if err != nil {
			w.t.Fatalf("%s fails %v, the full scan places it on %v", s.Name(), tk, want)
		}
		got := make([]int, len(dec.PodNodes))
		for i, n := range dec.PodNodes {
			got[i] = n.ID
		}
		if !slices.Equal(got, want) || len(dec.Victims) != 0 {
			w.t.Fatalf("%s places %v on %v with %d victims, the full scan on %v", s.Name(), tk, got, len(dec.Victims), want)
		}
	} else if err == nil && len(dec.Victims) == 0 {
		w.t.Fatalf("%s places %v without preemption, the full scan cannot", s.Name(), tk)
	}
	if err != nil {
		return
	}
	if !keep {
		w.ctx.State.ReleaseAll(tk)
		return
	}
	for i, v := range dec.Victims {
		w.evicted(v, dec.VictimLocs[i])
	}
	tk.EnterQueue(w.ctx.Now)
	tk.Start(w.ctx.Now)
	w.live = append(w.live, tk)
}

func (w *kernelWorld) schedulePTS(i int, tk *task.Task, keep bool) {
	w.schedule(w.kern[i], tk, func() *cluster.Node { return refBestNode(w.ref[i], w.ctx, tk) }, keep)
	if !maps.Equal(w.kern[i].blacklist, w.ref[i].blacklist) {
		w.t.Fatalf("config %d, %v: breaker blacklist %v, the full scan's %v", i, tk, w.kern[i].blacklist, w.ref[i].blacklist)
	}
	w.tripped = max(w.tripped, len(w.ref[i].blacklist))
}

func (w *kernelWorld) scheduleBaseline(i int, tk *task.Task, keep bool) {
	b := w.bases[i]
	var ok func(*cluster.Node) bool
	if b.ok != nil {
		ok = b.ok(tk)
	}
	score := b.score(tk)
	w.schedule(b.sched, tk, func() *cluster.Node { return refBestScored(w.cl, tk, ok, score) }, keep)
}

// mutate applies one random step to the world.
func (w *kernelWorld) mutate() {
	rng, st, now := w.rng, w.ctx.State, w.ctx.Now
	nodes := w.cl.Nodes()
	n := nodes[rng.Intn(len(nodes))]
	switch r := rng.Intn(24); {
	case r < 5:
		w.schedulePTS(rng.Intn(len(w.kern)), w.randomTask(), true)
	case r < 9:
		w.scheduleBaseline(rng.Intn(len(w.bases)), w.randomTask(), true)
	case r < 13 && len(w.live) > 0:
		i := rng.Intn(len(w.live))
		st.ReleaseAll(w.live[i])
		w.live[i].Finish(now)
		w.live = slices.Delete(w.live, i, i+1)
	case r == 13 && len(w.live) > 0:
		// A reclaim: one running spot task evicted where it stands.
		if v := w.live[rng.Intn(len(w.live))]; v.Type == task.Spot {
			locs := st.NodesOf(v)
			st.ReleaseAll(v)
			w.evicted(v, locs)
		}
	case r == 14:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			n.RecordEviction(now.Add(-simclock.Duration(rng.Intn(3)) * 40 * simclock.Minute))
		}
	case r == 15:
		victims, locs := st.KillNode(n)
		n.SetDown(true)
		for i, v := range victims {
			w.evicted(v, locs[i])
		}
	case r == 16:
		n.SetDown(false)
	case r == 17:
		// A drain, as the simulator does it: no spot task stays on a
		// cordoned node (Txn.Rollback could not put one back there).
		n.SetCordoned(true)
		for _, v := range n.SpotTasks() {
			locs := st.NodesOf(v)
			st.ReleaseAll(v)
			w.evicted(v, locs)
		}
	case r == 18:
		n.SetCordoned(false)
	case r == 19 && len(nodes) < 40:
		w.cl.AddPool(cluster.Pool{Model: kernelModels[rng.Intn(2)], Nodes: 1 + rng.Intn(2), GPUsPerNode: []int{8, 4}[rng.Intn(2)]})
	case r == 20:
		step := []simclock.Duration{10 * simclock.Minute, DefaultConfig().ShortWindow + 1, DefaultConfig().LongWindow + 1}
		w.ctx.Now = now.Add(step[rng.Intn(len(step))])
	case r == 21:
		// A gang placed by hand inside a transaction that also evicts,
		// then abandoned: Rollback goes through Node.ReleaseTask and
		// PlacePod directly.
		txn := st.Begin()
		if len(w.live) > 0 {
			// Like a planner, evict only spot tasks on schedulable
			// nodes, where Rollback can re-place them.
			v := w.live[rng.Intn(len(w.live))]
			if v.Type == task.Spot && !slices.ContainsFunc(st.NodesOf(v), func(np sched.NodePods) bool { return !np.Node.Schedulable() }) {
				txn.Evict(v)
			}
		}
		tk := w.randomTask()
		for pod := 0; pod < tk.Pods; pod++ {
			if fit := fitting(w.cl, tk); len(fit) > 0 {
				if err := txn.Place(fit[rng.Intn(len(fit))], tk); err != nil {
					w.t.Fatalf("Fitting offered a node %v does not fit: %v", tk, err)
				}
			}
		}
		txn.Rollback()
	}
}

// check probes the settled world with one pod of every shape: the
// index's fitting set against the scan's, one PTS configuration and one
// baseline against their references, and the bitmap-folded aggregates
// against the full walk.
func (w *kernelWorld) check() {
	for _, model := range kernelModels {
		for _, typ := range []task.Type{task.HP, task.Spot} {
			for _, g := range kernelSizes {
				tk := w.newTask(typ, 1, g, model)
				var want []int
				for _, n := range w.cl.NodesOfModel(model) {
					if n.CanFitPod(tk) {
						want = append(want, n.ID)
					}
				}
				slices.Sort(want)
				got := make([]int, 0, len(want))
				for _, n := range fitting(w.cl, tk) {
					got = append(got, n.ID)
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					w.t.Fatalf("Fitting(%v) = %v, the full scan finds %v", tk, got, want)
				}
				for n := range w.cl.Candidates(tk) {
					if _, fits := slices.BinarySearch(want, n.ID); !fits {
						w.t.Fatalf("Candidates(%v) offers node %d, which does not fit", tk, n.ID)
					}
				}
				w.schedulePTS(w.rng.Intn(len(w.kern)), tk, false)
				w.scheduleBaseline(w.rng.Intn(len(w.bases)), tk, false)
			}
		}
	}
	var used, hp, spot float64
	for _, n := range w.cl.Nodes() {
		if !n.Down() {
			used += n.UsedGPUs()
			hp += n.HPGPUs()
			spot += n.SpotGPUs()
		}
	}
	if got, want := [3]float64{w.cl.UsedGPUs(""), w.cl.HPGPUs(""), w.cl.SpotGPUs("")}, [3]float64{used, hp, spot}; got != want {
		w.t.Fatalf("aggregates %v, the full walk %v", got, want)
	}
}

func diffKernel(t *testing.T, seed int64, steps int) *kernelWorld {
	w := newKernelWorld(t, seed)
	for i := 0; i < steps; i++ {
		w.mutate()
		w.check()
	}
	return w
}

// TestPlacementKernelMatchesFullScan: through random placements by
// every scheduler, releases, reclaims, hand-rolled-back gangs, node
// failures and returns, cordons, pool growth and clock jumps past both
// eviction windows, scheduling through the cluster's placement index
// picks the nodes, fails the tasks and trips the breakers that the
// full scan does.
func TestPlacementKernelMatchesFullScan(t *testing.T) {
	var placed, failed, preempted, tripped int
	for seed := int64(1); seed <= 30; seed++ {
		w := diffKernel(t, seed, 80)
		placed, failed, preempted, tripped = placed+w.placed, failed+w.failed, preempted+w.preempted, tripped+w.tripped
	}
	t.Logf("placed %d, failed %d, preempted %d, blacklisted nodes %d", placed, failed, preempted, tripped)
	if placed == 0 || failed == 0 || preempted == 0 || tripped == 0 {
		t.Fatal("the runs exercised too little to vouch for anything")
	}
}

func FuzzPlacementKernel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) { diffKernel(t, seed, int(steps)) })
}

// TestCandidatesWorkGate is the hardware-independent work gate: on a
// 10,000-node cluster with 30 occupied nodes a placement looks at no
// more than those and one representative of the untouched rest, and
// still finds the full scan's winner.
func TestCandidatesWorkGate(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 10000, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	for i := 0; i < 30; i++ {
		n := cl.Nodes()[(i*337+11)%10000]
		tk := mkTask(i+1, task.Type(i%2), 1, []float64{0.5, 1, 2, 4, 8}[i%5])
		if err := n.PlacePod(tk); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range []float64{0.5, 1, 2, 4, 8} {
		for _, typ := range []task.Type{task.HP, task.Spot} {
			tk := mkTask(100+i, typ, 1, g)
			tk.GPUModel = "A100"
			var cands []*cluster.Node
			for n := range cl.Candidates(tk) {
				cands = append(cands, n)
			}
			if len(cands) > 31 {
				t.Errorf("%v: %d candidates on a cluster with 30 occupied nodes", tk, len(cands))
			}
			want := refBestNode(s, ctx, tk)
			if want == nil || !slices.Contains(cands, want) || s.bestNode(ctx, tk) != want {
				t.Errorf("%v: the full scan's winner %v is not the kernel's %v", tk, want, s.bestNode(ctx, tk))
			}
		}
	}
}

// TestBoundedVisitWorkGate is the bounded walk's hardware-independent
// work gate: on 1,250 8-card nodes, 10 with one idle card and 1,000
// with two, a 1-card pod visits the ten fullest nodes and the first of
// the next bucket at most, finds the full scan's winner, and allocates
// nothing.
func TestBoundedVisitWorkGate(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 1250, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	for i, n := range cl.Nodes()[:1010] {
		g := 6.0
		if i < 10 {
			g = 7
		}
		if err := n.PlacePod(mkTask(i+1, task.Type(i%2), 1, g)); err != nil {
			t.Fatal(err)
		}
	}
	for _, typ := range []task.Type{task.HP, task.Spot} {
		tk := mkTask(2000, typ, 1, 1)
		visited := s.visited
		got := s.bestNode(ctx, tk)
		if visited = s.visited - visited; visited > 11 {
			t.Errorf("%v visits %d nodes", tk, visited)
		}
		if want := refBestNode(s, ctx, tk); got != want {
			t.Errorf("%v: bestNode picks %v, the full scan %v", tk, got, want)
		}
		if avg := testing.AllocsPerRun(100, func() { s.bestNode(ctx, tk) }); avg != 0 {
			t.Errorf("%v: bestNode allocates %v times", tk, avg)
		}
	}
}

// TestBoundMarginAgainstDrift: HP fractions 0.1, 0.2 and 0.7 fill one
// card, but their float sum among whole-card pods overshoots, so two
// nodes with two idle cards read a packing score an ULP above 1 − 2/8.
// The one walked second ties the first and has the lower ID, so it
// wins: a walk whose bound had no margin would stop before it.
func TestBoundMarginAgainstDrift(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 4, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	id := 0
	for _, n := range []*cluster.Node{cl.Nodes()[1], cl.Nodes()[0]} {
		for _, g := range []float64{3, 0.1, 0.2, 2, 0.7} {
			id++
			if err := n.PlacePod(mkTask(id, task.HP, 1, g)); err != nil {
				t.Fatal(err)
			}
		}
		if s1, _ := s.occupancy(n, mkTask(0, task.HP, 1, 1)); s1 <= 1-2.0/8 || n.WholeFreeGPUs() != 2 {
			t.Fatalf("%v: packing score %v, %d idle cards: no drift to test", n, s1, n.WholeFreeGPUs())
		}
	}
	for _, typ := range []task.Type{task.HP, task.Spot} {
		for _, g := range []float64{0.5, 1, 2} {
			tk := mkTask(100, typ, 1, g)
			if got, want := s.bestNode(ctx, tk), refBestNode(s, ctx, tk); got != want || want != cl.Nodes()[0] {
				t.Errorf("%v: bestNode picks %v, the full scan %v", tk, got, want)
			}
		}
	}
}

// TestLooseClusterWalksEverything: a whole-card pod of fractional size
// holds int(g) cards but counts g, so four 1.5-GPU pods leave a node
// with four idle cards and the packing score of one with two. No floor
// holds for such a cluster, and bestNode must still find that node
// past a fuller one.
func TestLooseClusterWalksEverything(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 3, 8)
	ctx := newCtx(cl)
	s := New(DefaultConfig())
	for i := 1; i <= 4; i++ {
		if err := cl.Nodes()[2].PlacePod(mkTask(i, task.HP, 1, 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Nodes()[1].PlacePod(mkTask(5, task.HP, 1, 5)); err != nil {
		t.Fatal(err)
	}
	tk := mkTask(6, task.HP, 1, 1)
	if got, want := s.bestNode(ctx, tk), refBestNode(s, ctx, tk); got != want || want != cl.Nodes()[2] {
		t.Fatalf("bestNode picks %v, the full scan %v", got, want)
	}
}

// TestLongWindowFitsEvictionRetention: a node forgets evictions older
// than its retention whenever it records a new one; Eq. 15's long
// window must never reach back further than that.
func TestLongWindowFitsEvictionRetention(t *testing.T) {
	long := DefaultConfig().LongWindow
	n := cluster.NewNode(0, "A100", 8)
	n.RecordEviction(0)
	now := simclock.Time(long)
	n.RecordEviction(now)
	// With γ = 1 Eq. 15 is the count over the short window, here one
	// tick longer than LongWindow.
	if got := n.WeightedEvictionRate(now, 1, long+1, long+1); got != 2 {
		t.Fatalf("an eviction one LongWindow (%v h) old was trimmed: %v of 2 left", long.Hours(), got)
	}
}
