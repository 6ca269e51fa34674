package pts

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

var (
	reuseModels    = []string{"A100", "H800", ""}
	reuseSpotSizes = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 2}
	reuseHPSizes   = []float64{0.5, 1, 2, 4, 8}
)

// reuseWorld drives one cluster through random placements, finishes,
// reclaims, evictions, cordons, failures, pool growth, clock steps and
// HP gangs that preempt, committed or rolled back. One Scheduler plans
// every preemption of the run, memo and all; each of its plans is
// checked against a fresh Scheduler's on the same state. Spot fractions
// are tenths, whose wastes sum differently in different orders, so a
// Σwaste taken in another order would show in the cost's bits.
type reuseWorld struct {
	t      *testing.T
	rng    *rand.Rand
	cl     *cluster.Cluster
	ctx    *sched.Context
	reuse  *Scheduler
	probe  *task.Task // the HP pod the probe plans ask for
	live   []*task.Task
	nextID int
	// What the run exercised.
	plans, commits, rollbacks int
	// broken is set when Txn.Rollback could not re-place a victim.
	broken bool
}

func newReuseWorld(t *testing.T, seed int64) *reuseWorld {
	rng := rand.New(rand.NewSource(seed))
	cl := cluster.New()
	for i, id := range rng.Perm(12) {
		cl.AddNode(cluster.NewNode(id, reuseModels[i%2], []int{8, 4}[i/2%2]))
	}
	w := &reuseWorld{t: t, rng: rng, cl: cl, nextID: 1, reuse: New(DefaultConfig())}
	w.ctx = &sched.Context{Now: simclock.Time(simclock.Hour), State: sched.NewState(cl), G: 100, F: 5}
	w.probe = w.hpTask(1)
	return w
}

func (w *reuseWorld) task(typ task.Type, pods int, g float64, model string) *task.Task {
	tk := task.New(w.nextID, typ, pods, g, 6*simclock.Hour)
	w.nextID++
	tk.GPUModel = model
	tk.CheckpointEvery = simclock.Duration([]int{7, 10, 20, 30}[w.rng.Intn(4)]) * simclock.Minute
	tk.EnterQueue(w.ctx.Now)
	return tk
}

func (w *reuseWorld) hpTask(pods int) *task.Task {
	return w.task(task.HP, pods, reuseHPSizes[w.rng.Intn(len(reuseHPSizes))], reuseModels[w.rng.Intn(len(reuseModels))])
}

// plan is one preemption plan by the reusing scheduler, checked against
// a fresh one — the same node, the same victims, the same cost bits —
// and its cost against Eq. 19 recomputed from the victims.
func (w *reuseWorld) plan(tk *task.Task, evicted int) preemptCand {
	w.plans++
	got := w.reuse.bestPreemption(w.ctx, tk, evicted)
	want := New(DefaultConfig()).bestPreemption(w.ctx, tk, evicted)
	if got.node != want.node || !slices.Equal(got.victims, want.victims) || math.Float64bits(got.cost) != math.Float64bits(want.cost) {
		w.t.Fatalf("plan %d at %v for %v (%d evicted): node %v victims %v cost %v; a fresh planner: node %v victims %v cost %v",
			w.plans, w.ctx.Now, tk, evicted, got.node, taskIDs(got.victims), got.cost, want.node, taskIDs(want.victims), want.cost)
	}
	if got.node != nil {
		if ref := refPreemptionCost(w.ctx, w.ctx.F+evicted, got.node, got.victims); math.Float64bits(got.cost) != math.Float64bits(ref) {
			w.t.Fatalf("plan %d: cost %v, Eq. 19 over victims %v gives %v", w.plans, got.cost, taskIDs(got.victims), ref)
		}
	}
	return got
}

// refPreemptionCost is Eq. 19 computed in one piece from a victim set
// in task-ID order, the way the cost was computed before plans were
// memoized.
func refPreemptionCost(ctx *sched.Context, f int, n *cluster.Node, victims []*task.Task) float64 {
	t := float64(len(victims))
	denom := float64(ctx.G+f) + t
	evictTerm := 0.0
	if denom > 0 {
		evictTerm = (float64(f) + t) / denom
	}
	wasteSum := 0.0
	for _, v := range victims {
		wasteSum += v.Waste(ctx.Now)
	}
	return evictTerm + beta*wasteSum/(float64(n.Capacity())*ctx.ElapsedSeconds())
}

func taskIDs(ts []*task.Task) []int {
	out := make([]int, len(ts))
	for i, tk := range ts {
		out[i] = tk.ID
	}
	return out
}

// gang runs State.Gang. It reports false when Txn.Rollback panicked:
// Rollback re-places victims wherever they now pack best, which for
// mixed fractions can need a card more than they held. The world is
// broken then, and the run stops.
func (w *reuseWorld) gang(tk *task.Task, pick func(evicted int) (*cluster.Node, []*task.Task)) (dec *sched.Decision, err error, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if msg, _ := r.(string); !strings.HasPrefix(msg, "sched: rollback re-place failed") {
				panic(r)
			}
			w.broken = true
		}
	}()
	dec, err = w.ctx.State.Gang(tk, pick)
	return dec, err, true
}

// evicted books an eviction the way the simulator does.
func (w *reuseWorld) evicted(v *task.Task, locs []sched.NodePods) {
	v.Evict(w.ctx.Now)
	for _, np := range locs {
		np.Node.RecordEviction(w.ctx.Now)
	}
	w.live = slices.DeleteFunc(w.live, func(l *task.Task) bool { return l == v })
}

// preempt places an HP gang through checked plans, pod by pod, and
// commits it — booking its victims' evictions — or, when a pod finds no
// host or abort is set for the last pod, rolls it back.
func (w *reuseWorld) preempt(tk *task.Task, abort bool) {
	w.probe = tk
	dec, err, ok := w.gang(tk, func(evicted int) (*cluster.Node, []*task.Task) {
		// G and F move between plans of one instant, as the
		// simulator's counts do between decisions.
		w.ctx.G, w.ctx.F = 50+w.rng.Intn(100), w.rng.Intn(20)
		p := w.plan(tk, evicted)
		if abort && p.node != nil && w.rng.Intn(2) == 0 {
			return nil, p.victims // evict, then fail the pod
		}
		return p.node, p.victims
	})
	switch {
	case !ok:
	case err != nil:
		w.rollbacks++
	default:
		w.commits++
		for i, v := range dec.Victims {
			w.evicted(v, dec.VictimLocs[i])
		}
		tk.Start(w.ctx.Now)
		w.live = append(w.live, tk)
	}
}

// place puts tk on random nodes it fits without preemption, rolling
// back when some pod fits nowhere.
func (w *reuseWorld) place(tk *task.Task) {
	txn := w.ctx.State.Begin()
	for pod := 0; pod < tk.Pods; pod++ {
		fit := fitting(w.cl, tk)
		if len(fit) == 0 {
			txn.Rollback()
			return
		}
		if err := txn.Place(fit[w.rng.Intn(len(fit))], tk); err != nil {
			w.t.Fatalf("Fitting offered a node %v does not fit: %v", tk, err)
		}
	}
	txn.Commit()
	tk.Start(w.ctx.Now)
	w.live = append(w.live, tk)
}

// step applies one random mutation.
func (w *reuseWorld) step() {
	rng, st, now := w.rng, w.ctx.State, w.ctx.Now
	nodes := w.cl.Nodes()
	n := nodes[rng.Intn(len(nodes))]
	switch r := rng.Intn(24); {
	case r < 6:
		// Spot tasks, some of them gangs spread over several nodes.
		w.place(w.task(task.Spot, 1+rng.Intn(3), reuseSpotSizes[rng.Intn(len(reuseSpotSizes))], reuseModels[rng.Intn(2)]))
	case r < 8:
		w.place(w.hpTask(1 + rng.Intn(2)))
	case r < 12:
		w.preempt(w.hpTask(1+rng.Intn(3)), r == 11)
	case r < 14 && len(w.live) > 0:
		tk := w.live[rng.Intn(len(w.live))]
		st.ReleaseAll(tk)
		tk.Finish(now)
		w.live = slices.DeleteFunc(w.live, func(l *task.Task) bool { return l == tk })
	case r == 14 && len(w.live) > 0:
		if v := w.live[rng.Intn(len(w.live))]; v.Type == task.Spot {
			locs := st.NodesOf(v)
			st.ReleaseAll(v)
			w.evicted(v, locs)
		}
	case r == 15:
		n.RecordEviction(now)
	case r == 16:
		victims, locs := st.KillNode(n)
		n.SetDown(true)
		for i, v := range victims {
			w.evicted(v, locs[i])
		}
	case r == 17:
		n.SetDown(false)
	case r == 18:
		// A drain: no spot task stays on a cordoned node, where
		// Txn.Rollback could not put it back.
		n.SetCordoned(true)
		for _, v := range n.SpotTasks() {
			locs := st.NodesOf(v)
			st.ReleaseAll(v)
			w.evicted(v, locs)
		}
	case r == 19:
		n.SetCordoned(false)
	case r == 20 && len(nodes) < 24:
		w.cl.AddPool(cluster.Pool{Model: reuseModels[rng.Intn(2)], Nodes: 1 + rng.Intn(2), GPUsPerNode: []int{8, 4}[rng.Intn(2)]})
	case r == 21:
		// A transaction that evicts and places, then abandons both.
		txn := st.Begin()
		if len(w.live) > 0 {
			if v := w.live[rng.Intn(len(w.live))]; v.Type == task.Spot {
				txn.Evict(v)
			}
		}
		tk := w.hpTask(1)
		if fit := fitting(w.cl, tk); len(fit) > 0 {
			if err := txn.Place(fit[rng.Intn(len(fit))], tk); err != nil {
				w.t.Fatalf("Fitting offered a node %v does not fit: %v", tk, err)
			}
		}
		w.rollbacks++
		txn.Rollback()
	default:
		step := []simclock.Duration{simclock.Second, 7 * simclock.Minute, simclock.Hour}
		w.ctx.Now = now.Add(step[rng.Intn(len(step))])
	}
}

// check plans the probe pod on the settled world — mostly the pod the
// last gang asked for, so plans of one instant and size follow each
// other, sometimes another.
func (w *reuseWorld) check() {
	if w.rng.Intn(4) == 0 {
		w.probe = w.hpTask(1)
	}
	for k := w.rng.Intn(3); k >= 0; k-- {
		w.plan(w.probe, w.rng.Intn(3))
	}
}

func diffReuse(t *testing.T, seed int64, steps int) *reuseWorld {
	w := newReuseWorld(t, seed)
	for i := 0; i < steps && !w.broken; i++ {
		w.step()
		if !w.broken {
			w.check()
		}
	}
	return w
}

// TestPreemptionReuseMatchesFresh: through random placements, spot
// gangs, finishes, reclaims, evictions, node failures, cordons, pool
// growth, clock steps, and preempting HP gangs both committed and
// rolled back, the memoizing planner picks the node, the victims and
// the Eq. 19 cost bits a fresh planner picks, while serving most of its
// nodes from the memo.
func TestPreemptionReuseMatchesFresh(t *testing.T) {
	var plans, commits, rollbacks, broken int
	var costed, reused uint64
	for seed := int64(1); seed <= 40; seed++ {
		w := diffReuse(t, seed, 150)
		plans, commits, rollbacks = plans+w.plans, commits+w.commits, rollbacks+w.rollbacks
		costed, reused = costed+w.reuse.plans.costed, reused+w.reuse.plans.reused
		if w.broken {
			broken++
		}
	}
	t.Logf("%d plans, %d gangs committed, %d rolled back; %d nodes costed, %d reused; %d runs stopped by a rollback that could not re-place", plans, commits, rollbacks, costed, reused, broken)
	if commits == 0 || rollbacks == 0 || reused == 0 || reused < costed/4 || broken > 10 {
		t.Fatal("the runs exercised too little to vouch for anything")
	}
}

func FuzzPreemptionReuse(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(60))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) { diffReuse(t, seed, int(steps)) })
}

// TestPlanMemoKeysOnCluster: one scheduler planning on two clusters at
// the same instant for the same pod size returns each cluster's own
// plan, though node IDs and change counts agree across them.
func TestPlanMemoKeysOnCluster(t *testing.T) {
	build := func(cheap int) (*cluster.Cluster, *sched.Context) {
		cl := cluster.NewHomogeneous("A100", 2, 8)
		ctx := newCtx(cl)
		for i, n := range cl.Nodes() {
			for k := 0; k < 8; k++ {
				tk := mkTask(10*i+k+1, task.Spot, 1, 1)
				if err := n.PlacePod(tk); err != nil {
					t.Fatal(err)
				}
				// The cheap node's tenants have just checkpointed, the
				// other's lose five minutes each: waste steers the plan.
				started := simclock.Time(0)
				if i != cheap {
					started = ctx.Now - simclock.Time(5*simclock.Minute)
				}
				tk.Start(started)
			}
		}
		return cl, ctx
	}
	a, actx := build(0)
	b, bctx := build(1)
	for i := range a.Nodes() {
		if a.Nodes()[i].Changes() != b.Nodes()[i].Changes() {
			t.Fatal("the two clusters' nodes should read the same change counts")
		}
	}
	s := New(DefaultConfig())
	hp := mkTask(100, task.HP, 1, 4)
	pa := s.bestPreemption(actx, hp, 0)
	pa.victims = slices.Clone(pa.victims) // the memo's arena is reused
	pb := s.bestPreemption(bctx, hp, 0)
	if pa.node != a.Nodes()[0] || pb.node != b.Nodes()[1] {
		t.Fatalf("plans on %v and %v, want each cluster's cheap node", pa.node, pb.node)
	}
	if again := s.bestPreemption(actx, hp, 0); again.node != pa.node || !slices.Equal(again.victims, pa.victims) {
		t.Fatalf("back on the first cluster: node %v victims %v, first plan node %v victims %v", again.node, taskIDs(again.victims), pa.node, taskIDs(pa.victims))
	}
}
