package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

func newTask(id int, typ task.Type, pods int, g float64) *task.Task {
	return task.New(id, typ, pods, g, simclock.Hour)
}

func TestNodePlaceWholeCards(t *testing.T) {
	n := NewNode(0, "A100", 8)
	tk := newTask(1, task.HP, 1, 4)
	if !n.CanFitPod(tk) {
		t.Fatal("4-GPU pod should fit an empty 8-GPU node")
	}
	if err := n.PlacePod(tk); err != nil {
		t.Fatal(err)
	}
	if n.IdleGPUs() != 4 {
		t.Fatalf("idle = %v, want 4", n.IdleGPUs())
	}
	if n.HPGPUs() != 4 || n.SpotGPUs() != 0 {
		t.Fatalf("hp=%v spot=%v, want 4/0", n.HPGPUs(), n.SpotGPUs())
	}
	if n.WholeFreeGPUs() != 4 {
		t.Fatalf("whole free = %d, want 4", n.WholeFreeGPUs())
	}
}

func TestNodeRejectsOverCapacity(t *testing.T) {
	n := NewNode(0, "A100", 8)
	if err := n.PlacePod(newTask(1, task.HP, 1, 8)); err != nil {
		t.Fatal(err)
	}
	err := n.PlacePod(newTask(2, task.HP, 1, 1))
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestNodeModelConstraint(t *testing.T) {
	n := NewNode(0, "A10", 1)
	tk := newTask(1, task.HP, 1, 1)
	tk.GPUModel = "A100"
	if n.CanFitPod(tk) {
		t.Fatal("model mismatch should not fit")
	}
	if err := n.PlacePod(tk); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestFractionalSharingSameClass(t *testing.T) {
	n := NewNode(0, "A10", 1)
	a := newTask(1, task.Spot, 1, 0.4)
	b := newTask(2, task.Spot, 1, 0.5)
	if err := n.PlacePod(a); err != nil {
		t.Fatal(err)
	}
	if err := n.PlacePod(b); err != nil {
		t.Fatal(err)
	}
	if got := n.IdleGPUs(); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("idle = %v, want 0.1", got)
	}
	// A third spot pod of 0.2 cannot fit.
	c := newTask(3, task.Spot, 1, 0.2)
	if n.CanFitPod(c) {
		t.Fatal("0.2 pod should not fit in 0.1 remainder")
	}
}

func TestFractionalNoCrossClassSharing(t *testing.T) {
	n := NewNode(0, "A10", 1)
	if err := n.PlacePod(newTask(1, task.Spot, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	hp := newTask(2, task.HP, 1, 0.3)
	if n.CanFitPod(hp) {
		t.Fatal("HP must not share a card with spot")
	}
}

func TestFractionalPrefersPackedCard(t *testing.T) {
	n := NewNode(0, "A10", 2)
	if err := n.PlacePod(newTask(1, task.Spot, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	// Next 0.3 spot pod should share card 0, keeping card 1 whole.
	if err := n.PlacePod(newTask(2, task.Spot, 1, 0.3)); err != nil {
		t.Fatal(err)
	}
	if n.WholeFreeGPUs() != 1 {
		t.Fatalf("whole free = %d, want 1 (fractions should pack)", n.WholeFreeGPUs())
	}
}

func TestReleaseTask(t *testing.T) {
	n := NewNode(0, "A100", 8)
	tk := newTask(1, task.Spot, 2, 2) // two pods on same node
	if err := n.PlacePod(tk); err != nil {
		t.Fatal(err)
	}
	if err := n.PlacePod(tk); err != nil {
		t.Fatal(err)
	}
	if n.PodsOf(1) != 2 {
		t.Fatalf("pods = %d, want 2", n.PodsOf(1))
	}
	if n.SpotGPUs() != 4 {
		t.Fatalf("spot used = %v, want 4", n.SpotGPUs())
	}
	if !n.ReleaseTask(tk) {
		t.Fatal("release should report true")
	}
	if n.IdleGPUs() != 8 || n.SpotGPUs() != 0 {
		t.Fatalf("after release idle=%v spot=%v", n.IdleGPUs(), n.SpotGPUs())
	}
	if n.ReleaseTask(tk) {
		t.Fatal("double release should report false")
	}
}

func TestReleaseFractional(t *testing.T) {
	n := NewNode(0, "A10", 1)
	a := newTask(1, task.Spot, 1, 0.4)
	b := newTask(2, task.Spot, 1, 0.4)
	_ = n.PlacePod(a)
	_ = n.PlacePod(b)
	n.ReleaseTask(a)
	if got := n.IdleGPUs(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("idle = %v, want 0.6", got)
	}
	// The freed space is reusable by another spot pod.
	if !n.CanFitPod(newTask(3, task.Spot, 1, 0.6)) {
		t.Fatal("freed fractional space should be reusable")
	}
}

func TestSpotTasksSorted(t *testing.T) {
	n := NewNode(0, "A100", 8)
	for _, id := range []int{5, 2, 9} {
		tk := newTask(id, task.Spot, 1, 1)
		if err := n.PlacePod(tk); err != nil {
			t.Fatal(err)
		}
	}
	hp := newTask(1, task.HP, 1, 1)
	_ = n.PlacePod(hp)
	got := n.SpotTasks()
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 5 || got[2].ID != 9 {
		t.Fatalf("spot tasks = %v", got)
	}
	if len(n.Tasks()) != 4 {
		t.Fatalf("all tasks = %d, want 4", len(n.Tasks()))
	}
}

func TestEvictionWindows(t *testing.T) {
	n := NewNode(0, "A100", 8)
	base := simclock.Time(0)
	n.RecordEviction(base.Add(1 * simclock.Hour))
	n.RecordEviction(base.Add(20 * simclock.Hour))
	n.RecordEviction(base.Add(25*simclock.Hour - 30*simclock.Minute))
	now := base.Add(25 * simclock.Hour)
	if got := n.evictionsSince(now.Add(-simclock.Hour)); got != 1 {
		t.Fatalf("short window = %d, want 1", got)
	}
	if got := n.evictionsSince(now.Add(-24 * simclock.Hour)); got != 2 {
		t.Fatalf("long window = %d, want 2", got)
	}
}

func TestWeightedEvictionRate(t *testing.T) {
	n := NewNode(0, "A100", 8)
	now := simclock.Time(48 * simclock.Hour)
	// 2 in the last hour, 6 in the last 24h.
	for i := 0; i < 2; i++ {
		n.RecordEviction(now.Add(-30 * simclock.Minute))
	}
	for i := 0; i < 4; i++ {
		n.RecordEviction(now.Add(-10 * simclock.Hour))
	}
	got := n.WeightedEvictionRate(now, 0.8, simclock.Hour, 24*simclock.Hour)
	want := 0.8*2 + 0.2*6/24.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
}

func TestEvictionTrimKeepsWindows(t *testing.T) {
	n := NewNode(0, "A100", 8)
	// Record a very old eviction, then a recent one three days later.
	n.RecordEviction(simclock.Time(0))
	now := simclock.Time(3 * 24 * simclock.Hour)
	n.RecordEviction(now)
	if got := n.evictionsSince(now.Add(-24 * simclock.Hour)); got != 1 {
		t.Fatalf("long window after trim = %d, want 1", got)
	}
}

// TestQuietRateMatchesSearch: WeightedEvictionRate's early return for
// a node whose newest eviction lies outside both windows reads the bits
// the two-search formula does, at the window edges, with the short
// window longer than the long one, and after retention trims.
func TestQuietRateMatchesSearch(t *testing.T) {
	search := func(n *Node, now simclock.Time, gamma float64, short, long simclock.Duration) float64 {
		eShort := float64(n.evictionsSince(now.Add(-short)))
		eLong := float64(n.evictionsSince(now.Add(-long)))
		return gamma*eShort + (1-gamma)*eLong/long.Hours()
	}
	const h = simclock.Hour
	now := simclock.Time(100 * h)
	windows := [][2]simclock.Duration{{h, 24 * h}, {24 * h, h}, {h, h}, {0, 24 * h}}
	histories := map[string][]simclock.Time{
		"none":           nil,
		"at now-long":    {now.Add(-24 * h)},
		"at now-long+1":  {now.Add(-24*h + 1)},
		"at now-short":   {now.Add(-h)},
		"at now-short+1": {now.Add(-h + 1)},
		"at now":         {now},
		// Each record after the first trims what precedes it by more
		// than the retention.
		"trimmed":        {0, now.Add(-30 * h), now.Add(-24 * h)},
		"trimmed, fresh": {0, now.Add(-60 * h), now.Add(-2 * h), now.Add(-24*h + 1)},
	}
	for name, hist := range histories {
		n := NewNode(0, "A100", 8)
		for _, at := range hist {
			n.RecordEviction(at)
		}
		for _, w := range windows {
			for _, gamma := range []float64{0, 0.8, 1, 1.5} {
				for _, at := range []simclock.Time{now, now.Add(h), now.Add(-50 * h)} {
					got, want := n.WeightedEvictionRate(at, gamma, w[0], w[1]), search(n, at, gamma, w[0], w[1])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s, windows %v, γ %v, at %v: rate %v, the search %v", name, w, gamma, at, got, want)
					}
				}
			}
		}
	}
}

// TestEvictionHighWaterNeverFalls: the cluster's eviction high-water
// mark counts the longest history any node has held, including one
// recorded before the node joined, and a retention trim that shortens
// the history leaves it where it was.
func TestEvictionHighWaterNeverFalls(t *testing.T) {
	n := NewNode(9, "A100", 8)
	n.RecordEviction(0)
	n.RecordEviction(1)
	c := NewHomogeneous("A100", 2, 8)
	c.AddNode(n)
	if c.evictions != 2 {
		t.Fatalf("mark %d after adding a node with 2 evictions", c.evictions)
	}
	m := c.nodes[0]
	for i := 0; i < 5; i++ {
		m.RecordEviction(simclock.Time(i))
	}
	if c.evictions != 5 {
		t.Fatalf("mark %d after 5 evictions on one node", c.evictions)
	}
	m.RecordEviction(simclock.Time(3 * 24 * simclock.Hour))
	if len(m.evictions) != 1 || c.evictions != 5 {
		t.Fatalf("after the trim: history %d, mark %d", len(m.evictions), c.evictions)
	}
	for _, o := range c.nodes {
		if len(o.evictions) > c.evictions {
			t.Fatalf("%v holds %d evictions, above the mark %d", o, len(o.evictions), c.evictions)
		}
	}
	if got, want := c.MaxEvictionRate(0.8, 24*simclock.Hour), 0.8*5+0.2*5/24.0; got != want {
		t.Fatalf("MaxEvictionRate = %v, want %v", got, want)
	}
}

func TestFragmentation(t *testing.T) {
	n := NewNode(0, "A100", 8)
	if n.Fragmentation() != 0 {
		t.Fatalf("empty node frag = %v, want 0", n.Fragmentation())
	}
	// Occupy 3 cards → 5 idle → best power-of-two 4 → frag 1.
	if err := n.PlacePod(newTask(1, task.HP, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if n.Fragmentation() != 1 {
		t.Fatalf("frag = %v, want 1", n.Fragmentation())
	}
	// Occupy 4 total → 4 idle → frag 0.
	if err := n.PlacePod(newTask(2, task.HP, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if n.Fragmentation() != 0 {
		t.Fatalf("frag = %v, want 0", n.Fragmentation())
	}
}

func TestClusterAggregates(t *testing.T) {
	c := NewHeterogeneous([]Pool{
		{Model: "A10", Nodes: 4, GPUsPerNode: 1},
		{Model: "A100", Nodes: 2, GPUsPerNode: 8},
	})
	if got := c.TotalGPUs(""); got != 20 {
		t.Fatalf("total = %v, want 20", got)
	}
	if got := c.TotalGPUs("A100"); got != 16 {
		t.Fatalf("A100 total = %v, want 16", got)
	}
	if len(c.NodesOfModel("A10")) != 4 {
		t.Fatal("expected 4 A10 nodes")
	}
	models := c.Models()
	if len(models) != 2 || models[0] != "A10" || models[1] != "A100" {
		t.Fatalf("models = %v", models)
	}
	tk := newTask(1, task.HP, 1, 8)
	if err := c.NodesOfModel("A100")[0].PlacePod(tk); err != nil {
		t.Fatal(err)
	}
	if got := c.allocationRate(""); math.Abs(got-8.0/20) > 1e-9 {
		t.Fatalf("alloc rate = %v", got)
	}
	if got := c.allocationRate("A100"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("A100 alloc rate = %v", got)
	}
	if got := c.IdleGPUs(""); got != 12 {
		t.Fatalf("idle = %v, want 12", got)
	}
	if got := c.HPGPUs(""); got != 8 {
		t.Fatalf("hp = %v, want 8", got)
	}
	if got := c.SpotGPUs(""); got != 0 {
		t.Fatalf("spot = %v, want 0", got)
	}
}

func TestHomogeneousMatchesPaperSetup(t *testing.T) {
	c := NewHomogeneous("A100", 287, 8)
	if got := c.TotalGPUs(""); got != 2296 {
		t.Fatalf("total = %v, want 2296 (paper's A100 pool)", got)
	}
}

// Property: place/release round-trips leave the node exactly empty.
func TestPlaceReleaseRoundTrip(t *testing.T) {
	f := func(sizes []uint8) bool {
		n := NewNode(0, "A100", 8)
		var placed []*task.Task
		for i, s := range sizes {
			g := float64(s%8) + 1
			tk := newTask(i+1, task.Spot, 1, g)
			if n.PlacePod(tk) == nil {
				placed = append(placed, tk)
			}
		}
		for _, tk := range placed {
			if !n.ReleaseTask(tk) {
				return false
			}
		}
		return n.IdleGPUs() == 8 && n.UsedGPUs() == 0 && n.WholeFreeGPUs() == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: used + idle always equals capacity.
func TestCapacityConservedProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		n := NewNode(0, "A100", 8)
		live := map[int]*task.Task{}
		id := 1
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				for k, tk := range live {
					n.ReleaseTask(tk)
					delete(live, k)
					break
				}
			} else {
				g := float64(op%8) + 1
				tk := newTask(id, task.Spot, 1, g)
				if n.PlacePod(tk) == nil {
					live[id] = tk
				}
				id++
			}
			if math.Abs(n.UsedGPUs()+n.IdleGPUs()-8) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimableAndWithoutMatchMapPath: through random placements
// and releases of whole-card and fractional, HP and spot pods, on
// nodes that get cordoned and failed, the O(1) reclaimable-cards
// count equals the map path's evict-every-spot-task count, and the
// slice-based WholeFreeGPUsWithout equals WholeFreeGPUsExcluding on
// random victim subsets of either class.
func TestReclaimableAndWithoutMatchMapPath(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNode(0, "A100", 8)
		var live []*task.Task
		for step, id := 0, 1; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				tk := newTask(id, task.Type(rng.Intn(2)), 1, []float64{0.25, 0.5, 0.5, 1, 2, 4}[rng.Intn(6)])
				id++
				if n.PlacePod(tk) == nil {
					if rng.Intn(3) == 0 {
						_ = n.PlacePod(tk) // a second pod, when it fits
					}
					live = append(live, tk)
				}
			case r < 9 && len(live) > 0:
				i := rng.Intn(len(live))
				n.ReleaseTask(live[i])
				live = append(live[:i], live[i+1:]...)
			case r == 9:
				n.SetCordoned(rng.Intn(2) == 0)
			}
			spot := make(map[int]bool)
			for _, tk := range n.SpotTasks() {
				spot[tk.ID] = true
			}
			if got, want := n.ReclaimableGPUs(), n.WholeFreeGPUsExcluding(spot); got != want {
				t.Fatalf("seed %d step %d %v: ReclaimableGPUs %d, map path %d", seed, step, n, got, want)
			}
			var subset []*task.Task
			set := make(map[int]bool)
			for _, tk := range live {
				if rng.Intn(2) == 0 {
					subset = append(subset, tk)
					set[tk.ID] = true
				}
			}
			if got, want := n.WholeFreeGPUsWithout(subset), n.WholeFreeGPUsExcluding(set); got != want {
				t.Fatalf("seed %d step %d %v: WholeFreeGPUsWithout %d, map path %d", seed, step, n, got, want)
			}
		}
		for _, tk := range live {
			n.ReleaseTask(tk)
		}
		n.SetDown(true)
		if n.ReclaimableGPUs() != 0 || n.WholeFreeGPUsWithout(nil) != 0 {
			t.Fatalf("seed %d: a down node reclaims %d / frees %d", seed, n.ReclaimableGPUs(), n.WholeFreeGPUsWithout(nil))
		}
		n.SetDown(false)
		if n.ReclaimableGPUs() != 8 {
			t.Fatalf("seed %d: an empty node reclaims %d of 8", seed, n.ReclaimableGPUs())
		}
	}
}
