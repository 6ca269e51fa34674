package sched

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// flatSim is the scheduling pass as it was before the queue was
// bucketed by shape — one sorted slice, a per-pass kept list, a
// failed-shape scan and a merge — kept as the reference the bucketed
// pass is differentially tested against. It starts tasks and requeues
// victims but does none of the simulator's other bookkeeping.
type flatSim struct {
	cfg       SimConfig
	state     *State
	now       simclock.Time
	spotQuota float64
	pending   []*task.Task
}

func (r *flatSim) insert(tk *task.Task) {
	i := sort.Search(len(r.pending), func(i int) bool { return r.cfg.Scheduler.Less(tk, r.pending[i]) })
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = tk
}

func (r *flatSim) pass() {
	snapshot := r.pending
	r.pending = nil
	ctx := &Context{Now: r.now, State: r.state}
	admitLimit := math.Inf(1)
	if lim, ok := r.cfg.Quota.(AdmissionLimiter); ok {
		if l := lim.MaxAdmitPerPass(r.state.Cluster.TotalGPUs("")); l > 0 {
			admitLimit = l
		}
	}
	admitted, failures := 0.0, 0
	var kept []*task.Task
	var failed []taskShape
	for _, tk := range snapshot {
		if tk.State != task.Pending {
			continue
		}
		shape := shapeOfTask(tk)
		if failures >= r.cfg.limits.maxFailures || slices.Contains(failed, shape) {
			kept = append(kept, tk)
			continue
		}
		if tk.Type == task.Spot {
			if admitted > 0 && admitted+tk.TotalGPUs() > admitLimit {
				kept = append(kept, tk)
				continue
			}
			if r.state.Cluster.SpotGPUs("")+tk.TotalGPUs() > r.spotQuota {
				kept, failed, failures = append(kept, tk), append(failed, shape), failures+1
				continue
			}
		}
		dec, err := r.cfg.Scheduler.Schedule(ctx, tk)
		if err != nil {
			kept, failed, failures = append(kept, tk), append(failed, shape), failures+1
			continue
		}
		if tk.Type == task.Spot {
			admitted += tk.TotalGPUs()
		}
		for _, v := range dec.Victims {
			v.Evict(r.now)
			r.insert(v)
		}
		tk.Start(r.now)
		failed = failed[:0]
	}
	victims := r.pending
	merged := make([]*task.Task, 0, len(kept)+len(victims))
	i, j := 0, 0
	for i < len(kept) && j < len(victims) {
		if r.cfg.Scheduler.Less(victims[j], kept[i]) {
			merged, j = append(merged, victims[j]), j+1
		} else {
			merged, i = append(merged, kept[i]), i+1
		}
	}
	r.pending = append(append(merged, kept[i:]...), victims[j:]...)
}

// stubSched decides by a hash of the task's shape and the number of
// placements so far — so failure is a function of shape until a start
// mutates the state, the property the pass relies on — and on success
// really places the pods (an HP task first evicting a spot tenant or
// two), so quota checks and capacity see real occupancy. It logs every
// offer, which makes "same Schedule calls in the same order" the
// assertion.
type stubSched struct {
	// order picks the Less: 0 is PTS's (class, size, pods, submit);
	// 1 is class then submit, so every shape ties with every other;
	// 2 is submit alone, so HP starts evict into spot buckets the walk
	// is already part-way through.
	order  int
	muts   int
	offers []string
}

func (s *stubSched) Name() string { return "stub" }

func (s *stubSched) Less(a, b *task.Task) bool {
	if s.order < 2 && a.Type != b.Type {
		return a.Type == task.HP
	}
	if s.order == 0 {
		if a.TotalGPUs() != b.TotalGPUs() {
			return a.TotalGPUs() > b.TotalGPUs()
		}
		if a.Pods != b.Pods {
			return a.Pods > b.Pods
		}
	}
	return a.Submit < b.Submit
}

func (s *stubSched) Schedule(ctx *Context, tk *task.Task) (*Decision, error) {
	h := uint64(tk.Pods)*31 + uint64(tk.GPUsPerPod*8)*17 + uint64(tk.Type)*7 + uint64(len(tk.GPUModel))*5 + uint64(s.muts)*13
	h ^= h >> 3
	dec, err := s.place(ctx, tk, h)
	s.offers = append(s.offers, fmt.Sprintf("%d:%v", tk.ID, err == nil))
	return dec, err
}

func (s *stubSched) place(ctx *Context, tk *task.Task, h uint64) (*Decision, error) {
	if h%3 == 0 {
		return nil, ErrNoFit
	}
	txn := ctx.State.Begin()
	nodes := ctx.State.Cluster.NodesOfModel(tk.GPUModel)
	if tk.Type == task.HP && h%2 == 1 {
		evicted := 0
		for _, n := range nodes {
			for _, v := range n.SpotTasks() {
				if evicted < 2 {
					txn.Evict(v)
					evicted++
				}
			}
		}
	}
	for pod := 0; pod < tk.Pods; pod++ {
		i := slices.IndexFunc(nodes, func(n *cluster.Node) bool { return n.CanFitPod(tk) })
		if i < 0 || txn.Place(nodes[i], tk) != nil {
			txn.Rollback()
			return nil, ErrNoFit
		}
	}
	s.muts++
	return txn.Commit(), nil
}

// passWorld is one side of the differential: a cluster, a stub
// scheduler and either the simulator (bucketed pass) or flatSim.
type passWorld struct {
	sim   *Simulator
	flat  *flatSim
	stub  *stubSched
	tasks []*task.Task
}

func newPassWorld(bucketed bool, order, maxFail int, ramp float64) *passWorld {
	cl := cluster.New()
	cl.AddPool(cluster.Pool{Model: "A100", Nodes: 6, GPUsPerNode: 8})
	cl.AddPool(cluster.Pool{Model: "H800", Nodes: 4, GPUsPerNode: 8})
	w := &passWorld{stub: &stubSched{order: order}}
	cfg := DefaultSimConfig(cl, w.stub)
	cfg.limits = &limits{grace: 0, maxFailures: maxFail, idleTimeout: paperLimits.idleTimeout}
	cfg.Quota = rampQuota{perPass: ramp}
	if bucketed {
		w.sim = NewSimulator(cfg, nil)
	} else {
		w.flat = &flatSim{cfg: cfg, state: NewState(cl)}
	}
	return w
}

func (w *passWorld) state() *State {
	if w.sim != nil {
		return w.sim.state
	}
	return w.flat.state
}

// round advances to now, finishes the given running tasks, queues the
// arrivals, sets the quota headroom over current spot usage and runs
// one pass. It returns the resulting queue as task IDs in order.
func (w *passWorld) round(now simclock.Time, finish []int, arrivals []*task.Task, headroom float64) []int {
	st := w.state()
	for _, id := range finish {
		if tk := w.tasks[id-1]; tk.State == task.Running {
			st.ReleaseAll(tk)
			tk.Finish(now)
		}
	}
	quota := st.Cluster.SpotGPUs("") + headroom
	w.tasks = append(w.tasks, arrivals...)
	var ids []int
	if w.sim != nil {
		w.sim.now, w.sim.spotQuota = now, quota
		for _, tk := range arrivals {
			tk.EnterQueue(now)
			w.sim.pend.insert(tk)
		}
		w.sim.schedulePass()
		w.sim.pend.each(func(tk *task.Task) { ids = append(ids, tk.ID) })
		if w.sim.PendingTasks() != len(ids) {
			panic(fmt.Sprintf("queue count %d, walk saw %d", w.sim.PendingTasks(), len(ids)))
		}
		return ids
	}
	w.flat.now, w.flat.spotQuota = now, quota
	for _, tk := range arrivals {
		tk.EnterQueue(now)
		w.flat.insert(tk)
	}
	w.flat.pass()
	for _, tk := range w.flat.pending {
		ids = append(ids, tk.ID)
	}
	return ids
}

// diffPasses drives both passes through the same seeded rounds and
// fails on the first divergence in Schedule offers or queue order.
func diffPasses(t *testing.T, seed int64, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Intn(3)
	maxFail := []int{2, 5, 25}[rng.Intn(3)]
	ramp := []float64{0, 6, 24}[rng.Intn(3)]
	a := newPassWorld(true, order, maxFail, ramp)
	b := newPassWorld(false, order, maxFail, ramp)
	models := []string{"A100", "H800", ""}
	id := 0
	for r := 0; r < rounds; r++ {
		now := simclock.Time(r+1) * simclock.Time(simclock.Minute)
		var finish []int
		for k := rng.Intn(4); k > 0 && id > 0; k-- {
			finish = append(finish, 1+rng.Intn(id))
		}
		headroom := []float64{math.Inf(1), 0, 3, 12}[rng.Intn(4)]
		var arrA, arrB []*task.Task
		for k := rng.Intn(12); k > 0; k-- {
			id++
			typ := task.Type(rng.Intn(2))
			pods := 1 + rng.Intn(2)
			g := []float64{0.5, 1, 2, 4, 8}[rng.Intn(5)]
			model := models[rng.Intn(len(models))]
			// Coarse submit times: Less ties within and across shapes.
			submit := now - simclock.Time(rng.Intn(3))*simclock.Time(simclock.Minute)
			for _, arr := range []*[]*task.Task{&arrA, &arrB} {
				tk := mkTask(id, typ, pods, g, simclock.Hour, submit)
				tk.GPUModel = model
				*arr = append(*arr, tk)
			}
		}
		qa := a.round(now, finish, arrA, headroom)
		qb := b.round(now, finish, arrB, headroom)
		if !slices.Equal(a.stub.offers, b.stub.offers) {
			t.Fatalf("seed %d round %d: Schedule offers diverge\n bucketed: %v\n flat:     %v", seed, r, a.stub.offers, b.stub.offers)
		}
		if !slices.Equal(qa, qb) {
			t.Fatalf("seed %d round %d: queue order diverges\n bucketed: %v\n flat:     %v", seed, r, qa, qb)
		}
		a.stub.offers, b.stub.offers = a.stub.offers[:0], b.stub.offers[:0]
	}
}

// TestSchedulePassMatchesFlatReference: over seeded random queues —
// Less ties across shapes, shape- and mutation-dependent placement,
// victims re-entering mid-pass, the admission ramp, spot-quota
// failures and maxFailures cut-offs — the bucketed pass offers
// the same tasks to the scheduler in the same order as the flat pass
// and leaves the same queue.
func TestSchedulePassMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		diffPasses(t, seed, 40)
	}
}

func FuzzSchedulePass(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(30))
	}
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8) { diffPasses(t, seed, int(rounds)) })
}

// TestPassWorkScalesWithShapes is the hardware-independent work gate:
// on a contended run the entries a pass examines are bounded by the
// distinct shapes queued plus the tasks it starts, not by the queue
// length. Counts only — no clock.
func TestPassWorkScalesWithShapes(t *testing.T) {
	cfg := trace.Default()
	cfg.Seed, cfg.Days, cfg.ClusterGPUs, cfg.SpotScale = 7, 2, 64*8, 4
	cfg.MaxDuration = 6 * simclock.Hour
	// The trace loads 64 nodes at spot scale 4; 48 nodes carry it.
	cl := cluster.NewHomogeneous("A100", 48, 8)
	sc := DefaultSimConfig(cl, &firstFit{preempt: true})
	sc.Quota = StaticQuota{Fraction: 0.5}
	s := NewSimulator(sc, trace.Generate(cfg))
	var depth, steps uint64
	for s.Step() {
		depth += uint64(s.PendingTasks())
		steps++
	}
	s.Finish()
	w := s.work
	t.Logf("passes %d shapes %d examined %d parked %d calls %d starts %d; mean depth %.0f",
		w.passes, w.shapes, w.examined, s.pend.parks, w.calls, w.starts, float64(depth)/float64(steps))
	if w.passes == 0 || w.starts == 0 || s.pend.parks == 0 {
		t.Fatalf("run exercised nothing: %+v", w)
	}
	if bound := 2 * (w.shapes + w.starts); w.examined > bound {
		t.Errorf("examined %d entries, want ≤ 2·(shapes %d + starts %d) = %d", w.examined, w.shapes, w.starts, bound)
	}
	if w.examined*10 > depth {
		t.Errorf("examined %d entries against a summed queue depth of %d: the run is not contended enough to gate on", w.examined, depth)
	}
}

// TestPickWorkIsLogarithmic is the queue's work gate: over L live
// buckets a pick — reading the tree's root, then replaying the path of
// the leaf whose head it passed or removed — costs at most ⌈log₂ L⌉ + 1
// calls of before, where a scan of the bucket heads cost L − 1, and
// starting the walk costs L − 1. Every pick is also checked against
// that scan, with tasks queued mid-walk right at a live bucket's
// cursor, where a victim evicted during a pass can land. Counts only —
// no clock.
func TestPickWorkIsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, live := range []int{1, 4, 16, 64} {
		// Submit order alone, shuffled, so picks hop between buckets.
		q := pendingQueue{sched: &stubSched{order: 2}, byShape: make(map[taskShape]*shapeBucket)}
		queued := 0
		add := func(pods int, submit simclock.Time) {
			queued++
			q.insert(mkTask(queued, task.Spot, pods, 1, simclock.Hour, submit))
		}
		for i, sub := range rng.Perm(8 * live) {
			add(1+i%live, simclock.Time(sub))
		}
		scan := func() int {
			best := -1
			for j, b := range q.walk {
				if q.win[live+j] >= 0 && (best < 0 || q.before(b.head(), q.walk[best].head())) {
					best = j
				}
			}
			return best
		}
		bound := uint64(bits.Len(uint(live-1))) + 1
		c := q.cmps
		q.begin()
		if len(q.walk) != live || q.cmps-c > uint64(live-1) {
			t.Fatalf("L=%d: the walk began with %d buckets in %d comparisons, want %d in ≤ %d", live, len(q.walk), q.cmps-c, live, live-1)
		}
		picks := 0
		for j := q.min(); j >= 0; j = q.min() {
			if want := scan(); j != want {
				t.Fatalf("L=%d: pick %d took bucket %d, a scan of the heads takes %d", live, picks, j, want)
			}
			c := q.cmps
			if picks%3 == 0 {
				q.remove(j)
			} else {
				q.skip(j)
			}
			if w := q.cmps - c; w > bound {
				t.Fatalf("L=%d: pick %d cost %d comparisons, want ≤ ⌈log₂ L⌉ + 1 = %d", live, picks, w, bound)
			}
			picks++
			// Queue a task at a live bucket's cursor, ahead of the
			// other buckets' heads.
			if b := q.walk[rng.Intn(live)]; picks%5 == 0 && q.win[live+int(b.leaf)] >= 0 {
				submit := simclock.Time(-queued)
				if b.cur > 0 {
					submit = b.entries[b.cur-1].tk.Submit
				}
				add(b.head().tk.Pods, submit)
			}
		}
		if picks != queued {
			t.Fatalf("L=%d: walk picked %d of %d entries", live, picks, queued)
		}
	}
}

// TestRemoveKeepsCapacity: a bucket that starts its head and queues a
// later task, again and again, keeps its queue order and its backing
// array. A remove near the front shifts the passed entries up a slot
// rather than the tail down, and the insert that finds the array full
// at the back slides the entries back over the freed slots.
func TestRemoveKeepsCapacity(t *testing.T) {
	q := pendingQueue{sched: &stubSched{order: 2}, byShape: make(map[taskShape]*shapeBucket)}
	id := 0
	add := func() {
		id++
		q.insert(mkTask(id, task.Spot, 1, 1, simclock.Hour, simclock.Time(id)))
	}
	for range 100 {
		add()
	}
	b := q.buckets[0]
	capacity := cap(b.buf)
	for round := range 1000 {
		q.begin()
		for range round % 7 { // pass a few entries, then start the next
			q.skip(q.min())
		}
		q.remove(q.min())
		add()
		if cap(b.buf) != capacity || len(b.entries) != 100 {
			t.Fatalf("round %d: %d entries, capacity %d, want 100 and %d", round, len(b.entries), cap(b.buf), capacity)
		}
		for i := 1; i < len(b.entries); i++ {
			if b.entries[i-1].tk.Submit >= b.entries[i].tk.Submit {
				t.Fatalf("round %d: entry %d submitted at %v after %v", round, i, b.entries[i].tk.Submit, b.entries[i-1].tk.Submit)
			}
		}
	}
}

// deepShapes are the 13 (pods, GPUs per pod) shapes of deepQueue;
// manyShapes are 64: 1 to 16 pods of 8, 4, 2 or 1 GPUs.
var deepShapes = [][2]float64{{1, 8}, {2, 8}, {4, 8}, {1, 4}, {2, 4}, {3, 4}, {1, 2}, {2, 2}, {3, 2}, {1, 1}, {2, 1}, {3, 1}, {5, 1}}

var manyShapes = func() [][2]float64 {
	var out [][2]float64
	for _, g := range []float64{8, 4, 2, 1} {
		for pods := 1; pods <= 16; pods++ {
			out = append(out, [2]float64{float64(pods), g})
		}
	}
	return out
}()

// deepQueue builds a simulator holding 1,500 queued tasks of the given
// shapes, taken in turn, on a full cluster, so an unassisted pass fails
// every shape. With room set, one idle node lets the head of the queue
// (HP, 1×8, the first shape of both lists) start and nothing else.
func deepQueue(room bool, shapes [][2]float64) *Simulator {
	cl := cluster.NewHomogeneous("A100", 9, 8)
	cfg := DefaultSimConfig(cl, &firstFit{})
	s := NewSimulator(cfg, nil)
	nodes := cl.Nodes()
	if room {
		nodes = nodes[1:]
	}
	for i, n := range nodes {
		hog := mkTask(10000+i, task.HP, 1, 8, simclock.Hour, 0)
		txn := s.state.Begin()
		if err := txn.Place(n, hog); err != nil {
			panic(err)
		}
		txn.Commit()
	}
	for i := 0; i < 1500; i++ {
		sh := shapes[i%len(shapes)]
		tk := mkTask(i+1, task.Type((i+1)%2), int(sh[0]), sh[1], simclock.Hour, simclock.Time(i))
		tk.EnterQueue(0)
		s.pend.insert(tk)
	}
	return s
}

func TestAllFailPassAllocatesNothing(t *testing.T) {
	for _, shapes := range [][][2]float64{deepShapes, manyShapes} {
		s := deepQueue(false, shapes)
		s.schedulePass() // sizes the walk lists
		if n := testing.AllocsPerRun(20, s.schedulePass); n != 0 {
			t.Fatalf("all-fail pass at depth %d over %d shapes: %v allocs, want 0", s.PendingTasks(), len(shapes), n)
		}
		if s.PendingTasks() != 1500 || s.work.starts != 0 {
			t.Fatalf("pass changed the queue: %d queued, %d starts", s.PendingTasks(), s.work.starts)
		}
	}
}

func BenchmarkSchedulePass(b *testing.B) {
	for _, c := range []struct {
		name   string
		shapes [][2]float64
	}{{"", deepShapes}, {"many-shapes-", manyShapes}} {
		b.Run(c.name+"all-fail", func(b *testing.B) {
			s := deepQueue(false, c.shapes)
			b.ReportAllocs()
			for b.Loop() {
				s.schedulePass()
			}
		})
		b.Run(c.name+"one-start", func(b *testing.B) {
			s := deepQueue(true, c.shapes)
			first := s.pend.buckets[0].entries[0].tk
			b.ReportAllocs()
			for b.Loop() {
				s.schedulePass()
				if first.State != task.Running {
					b.Fatal("the head of the queue did not start")
				}
				// Undo the start: the task goes back in the queue.
				s.state.ReleaseAll(first)
				first.EnterQueue(0)
				s.pend.insert(first)
			}
		})
	}
}
