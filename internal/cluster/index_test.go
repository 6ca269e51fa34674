package cluster

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// checkIndex is the placement index's invariant: every node sits in
// exactly the container its own state names, at the slot it records;
// the containers hold nothing else; each pristine class is a min-ID
// heap; and a node's occupied bit is set exactly while it holds an
// allocation.
func checkIndex(c *Cluster) error {
	filed := 0
	for _, ix := range c.models {
		for k, b := range ix.free {
			for slot, n := range b {
				if n.owner != ix || n.bin != int16(k)+1 || int(n.slot) != slot {
					return fmt.Errorf("%v in free[%d][%d] records bin %d slot %d", n, k, slot, n.bin, n.slot)
				}
			}
			filed += len(b)
		}
		for capacity, h := range ix.pristine {
			for slot, n := range h {
				if n.owner != ix || n.bin != -int16(capacity) || int(n.slot) != slot {
					return fmt.Errorf("%v in pristine[%d][%d] records bin %d slot %d", n, capacity, slot, n.bin, n.slot)
				}
				if slot > 0 && h[(slot-1)/2].ID > n.ID {
					return fmt.Errorf("pristine[%d] is no min-ID heap at slot %d", capacity, slot)
				}
			}
			filed += len(h)
		}
	}
	for ord, n := range c.nodes {
		if int(n.ord) != ord {
			return fmt.Errorf("%v at position %d records ord %d", n, ord, n.ord)
		}
		if want := n.container(); n.bin != want {
			return fmt.Errorf("%v is filed under %d, its state names %d", n, n.bin, want)
		}
		if n.bin != 0 {
			filed--
		}
		bit := c.occupied[ord>>6]>>(ord&63)&1 == 1
		if bit != (n.hpUsed != 0 || n.spotUsed != 0) {
			return fmt.Errorf("%v: occupied bit %v", n, bit)
		}
	}
	if filed != 0 {
		return fmt.Errorf("containers hold %d entries more than there are filed nodes", filed)
	}
	return nil
}

// bruteFitting is the scan the index replaced.
func bruteFitting(c *Cluster, tk *task.Task) []*Node {
	var out []*Node
	for _, n := range c.NodesOfModel(tk.GPUModel) {
		if n.CanFitPod(tk) {
			out = append(out, n)
		}
	}
	return out
}

// list collects a walk's nodes.
func list(walk iter.Seq2[*Node, float64]) []*Node {
	var out []*Node
	for n := range walk {
		out = append(out, n)
	}
	return out
}

// checkFloors checks a walk's floor contract: floors never fall, and
// each node's idle share is at least its own.
func checkFloors(walk iter.Seq2[*Node, float64]) error {
	last := math.Inf(-1)
	for n, floor := range walk {
		if floor < last || n.IdleGPUs()/float64(n.Capacity()) < floor {
			return fmt.Errorf("%v walked at floor %v after floor %v", n, floor, last)
		}
		last = floor
	}
	return nil
}

func ids(nodes []*Node) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	slices.Sort(out)
	return out
}

// checkKernel compares Fitting with the brute-force scan and checks
// that Candidates is Fitting minus all but the lowest-ID member of
// each pristine class, for one probe pod.
func checkKernel(c *Cluster, tk *task.Task) error {
	want := bruteFitting(c, tk)
	for _, walk := range []iter.Seq2[*Node, float64]{c.Fitting(tk), c.Candidates(tk)} {
		if err := checkFloors(walk); err != nil {
			return err
		}
	}
	if got := ids(list(c.Fitting(tk))); !slices.Equal(got, ids(want)) {
		return fmt.Errorf("Fitting(%v) = %v, scan finds %v", tk, got, ids(want))
	}
	var collapsed []*Node
	type class struct {
		model    string
		capacity int
	}
	lowest := map[class]*Node{}
	for _, n := range want {
		if n.bin >= 0 {
			collapsed = append(collapsed, n)
			continue
		}
		key := class{n.Model, n.Capacity()}
		if m := lowest[key]; m == nil || n.ID < m.ID {
			lowest[key] = n
		}
	}
	for _, n := range lowest {
		collapsed = append(collapsed, n)
	}
	if got := ids(list(c.Candidates(tk))); !slices.Equal(got, ids(collapsed)) {
		return fmt.Errorf("Candidates(%v) = %v, want %v", tk, got, ids(collapsed))
	}
	return nil
}

// probes is one pod of every shape the kernel distinguishes, for
// every model of c and for "any model".
func probes(c *Cluster) []*task.Task {
	var out []*task.Task
	for _, model := range append(c.Models(), "") {
		for _, typ := range []task.Type{task.HP, task.Spot} {
			for _, g := range []float64{0.25, 0.5, 1, 2, 3, 4, 8, 16} {
				tk := newTask(1<<20+len(out), typ, 1, g)
				tk.GPUModel = model
				out = append(out, tk)
			}
		}
	}
	return out
}

// bruteAgg is the full-walk fold refreshAgg used to run.
func bruteAgg(c *Cluster) (used, hp, spot float64) {
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		used += n.hpUsed + n.spotUsed
		hp += n.hpUsed
		spot += n.spotUsed
	}
	return
}

// TestIndexUnderRandomOps drives placements, releases, failures,
// cordons, evictions and pool growth over two models and two
// capacities with shuffled node IDs, checking after every step the
// index invariant, the kernel against the brute-force scan for every
// probe shape, and the bitmap-folded aggregates bit for bit.
func TestIndexUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		for i, id := range rng.Perm(24) {
			c.AddNode(NewNode(id, []string{"A100", "H800"}[i%2], []int{8, 4}[i/2%2]))
		}
		var live []*task.Task
		for step, id := 0, 1; step < 150; step++ {
			n := c.nodes[rng.Intn(len(c.nodes))]
			switch r := rng.Intn(20); {
			case r < 9:
				tk := newTask(id, task.Type(rng.Intn(2)), 1, []float64{0.25, 0.5, 0.5, 1, 1, 2, 4, 8}[rng.Intn(8)])
				id++
				if n.PlacePod(tk) == nil {
					live = append(live, tk)
					if m := c.nodes[rng.Intn(len(c.nodes))]; rng.Intn(3) == 0 {
						_ = m.PlacePod(tk) // a second pod, elsewhere or here
					}
				}
			case r < 14 && len(live) > 0:
				i := rng.Intn(len(live))
				for _, m := range c.nodes {
					m.ReleaseTask(live[i])
				}
				live = slices.Delete(live, i, i+1)
			case r == 14:
				n.SetCordoned(rng.Intn(2) == 0)
			case r == 15:
				for _, tk := range n.Tasks() {
					for _, m := range c.nodes {
						m.ReleaseTask(tk)
					}
					live = slices.DeleteFunc(live, func(l *task.Task) bool { return l == tk })
				}
				n.SetDown(true)
			case r == 16:
				n.SetDown(false)
			case r == 17:
				n.RecordEviction(simclock.Time(step) * simclock.Time(simclock.Hour))
			case r == 18 && len(c.nodes) < 40:
				c.AddPool(Pool{Model: []string{"A100", "H800"}[rng.Intn(2)], Nodes: 2, GPUsPerNode: []int{8, 4}[rng.Intn(2)]})
			}
			if err := checkIndex(c); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, tk := range probes(c) {
				if err := checkKernel(c, tk); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			used, hp, spot := bruteAgg(c)
			if got := [3]float64{c.UsedGPUs(""), c.HPGPUs(""), c.SpotGPUs("")}; got != [3]float64{used, hp, spot} {
				t.Fatalf("seed %d step %d: aggregates %v, full walk %v", seed, step, got, [3]float64{used, hp, spot})
			}
		}
	}
}

// TestUsageFoldRestartsExactly drives clusters of 200 to 250 nodes —
// four words of the occupied bitmap, grown by pools across the fifth
// word's boundary — through fractional placements drawn from
// [0.1, 0.9], whose sums depend on their order, releases, and failures
// and returns of occupied nodes, several at scattered positions between
// reads, and checks that the fold, restarted from the first changed
// word, equals the full walk bit for bit.
func TestUsageFoldRestartsExactly(t *testing.T) {
	var midRestarts, crossed int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewHomogeneous("A100", 200+rng.Intn(51), 8)
		words := len(c.occupied)
		var live []*task.Task
		for step, id := 0, 1; step < 300; step++ {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				n := c.nodes[rng.Intn(len(c.nodes))]
				switch r := rng.Intn(12); {
				case r < 6:
					g := 0.1 + 0.8*rng.Float64()
					if r == 0 {
						g = float64(1 + rng.Intn(2))
					}
					tk := newTask(id, task.Type(rng.Intn(2)), 1, g)
					id++
					placed := false
					for p := 1 + rng.Intn(2); p > 0; p-- {
						placed = c.nodes[rng.Intn(len(c.nodes))].PlacePod(tk) == nil || placed
					}
					if placed {
						live = append(live, tk)
					}
				case r < 9 && len(live) > 0:
					i := rng.Intn(len(live))
					for _, m := range c.nodes {
						m.ReleaseTask(live[i])
					}
					live = slices.Delete(live, i, i+1)
				case r < 11:
					n.SetDown(!n.down) // whatever it holds
				case r == 11 && len(c.nodes) < 320:
					c.AddPool(Pool{Model: "A100", Nodes: 1 + rng.Intn(8), GPUsPerNode: 8})
				}
			}
			if c.stale > 0 && c.stale < len(c.occupied) {
				midRestarts++
			}
			used, hp, spot := bruteAgg(c)
			if got := [3]float64{c.UsedGPUs(""), c.HPGPUs(""), c.SpotGPUs("")}; got != [3]float64{used, hp, spot} {
				t.Fatalf("seed %d step %d: aggregates %v, full walk %v", seed, step, got, [3]float64{used, hp, spot})
			}
		}
		if len(c.occupied) > words {
			crossed++
		}
	}
	if midRestarts == 0 || crossed == 0 {
		t.Fatalf("%d reads restarted mid-bitmap, %d runs grew a word: too little exercised", midRestarts, crossed)
	}
}

func TestIndexEdges(t *testing.T) {
	whole := newTask(1, task.HP, 1, 2)
	has := func(c *Cluster, n *Node) bool { return slices.Contains(list(c.Candidates(whole)), n) }

	t.Run("cordon and uncordon re-file the node", func(t *testing.T) {
		c := NewHomogeneous("A100", 2, 8)
		n := c.nodes[0]
		n.SetCordoned(true)
		if has(c, n) || checkIndex(c) != nil {
			t.Fatalf("cordoned node still offered (%v)", checkIndex(c))
		}
		n.SetCordoned(false)
		if !has(c, n) || checkIndex(c) != nil {
			t.Fatalf("uncordoned node not offered (%v)", checkIndex(c))
		}
		// SetDown(false) on an up-but-cordoned node clears the cordon
		// without an up/down transition.
		n.SetCordoned(true)
		n.SetDown(false)
		if !has(c, n) || checkIndex(c) != nil {
			t.Fatalf("SetDown(false) left a cordoned-and-up node out (%v)", checkIndex(c))
		}
	})

	t.Run("a node that held tasks before AddNode", func(t *testing.T) {
		n := NewNode(7, "A100", 8)
		if err := n.PlacePod(newTask(2, task.Spot, 1, 6)); err != nil {
			t.Fatal(err)
		}
		c := NewHomogeneous("A100", 1, 8)
		c.AddNode(n)
		if err := checkIndex(c); err != nil {
			t.Fatal(err)
		}
		if c.UsedGPUs("") != 6 || c.SpotGPUs("") != 6 {
			t.Fatalf("aggregates miss the pre-loaded node: used %v spot %v", c.UsedGPUs(""), c.SpotGPUs(""))
		}
		if got := ids(list(c.Candidates(whole))); !slices.Equal(got, []int{0, 7}) {
			t.Fatalf("Candidates = %v, want the empty node and the 2-free one", got)
		}
		if got := list(c.Candidates(newTask(3, task.HP, 1, 4))); len(got) != 1 || got[0].ID != 0 {
			t.Fatalf("a 4-card pod is offered %v", ids(got))
		}
	})

	t.Run("one eviction 49 h ago still bars the pristine class", func(t *testing.T) {
		c := NewHomogeneous("A100", 3, 8)
		n := c.nodes[0]
		n.RecordEviction(0)
		// Queries 49 h on see no eviction in any window, yet the entry
		// is still held (trimming happens only on a later record, and
		// spares the newest), so the node stays distinguishable.
		now := simclock.Time(49 * simclock.Hour)
		if n.evictionsSince(now.Add(-evictionRetention)) != 0 || n.bin != 9 {
			t.Fatalf("bin %d, evictions in retention %d", n.bin, n.evictionsSince(now.Add(-evictionRetention)))
		}
		n.RecordEviction(now)
		if len(n.evictions) != 1 || n.bin != 9 || checkIndex(c) != nil {
			t.Fatalf("after the trim: history %v bin %d (%v)", n.evictions, n.bin, checkIndex(c))
		}
		if got := ids(list(c.Candidates(whole))); !slices.Equal(got, []int{0, 1}) {
			t.Fatalf("Candidates = %v, want the evicted-from node and one pristine representative", got)
		}
	})

	t.Run("any-model request on a heterogeneous cluster", func(t *testing.T) {
		c := NewHeterogeneous([]Pool{{Model: "A100", Nodes: 3, GPUsPerNode: 8}, {Model: "A10", Nodes: 3, GPUsPerNode: 4}, {Model: "H800", Nodes: 2, GPUsPerNode: 8}})
		if got := ids(list(c.Candidates(whole))); !slices.Equal(got, []int{0, 3, 6}) {
			t.Fatalf("Candidates = %v, want one representative per model", got)
		}
		if got := ids(list(c.Candidates(newTask(2, task.HP, 1, 8)))); !slices.Equal(got, []int{0, 6}) {
			t.Fatalf("8-card Candidates = %v, want the two 8-card models", got)
		}
		if got := list(c.Fitting(whole)); len(got) != 8 {
			t.Fatalf("Fitting offers %d of 8 nodes", len(got))
		}
		a10 := newTask(3, task.Spot, 1, 0.5)
		a10.GPUModel = "A10"
		if got := ids(list(c.Candidates(a10))); !slices.Equal(got, []int{3}) {
			t.Fatalf("A10 Candidates = %v", got)
		}
		a10.GPUModel = "V100"
		if got := list(c.Candidates(a10)); len(got) != 0 {
			t.Fatalf("unknown model is offered %v", ids(got))
		}
	})

	t.Run("the class representative is the lowest ID, not the first added", func(t *testing.T) {
		c := New()
		for _, id := range []int{5, 9, 2, 7, 3} {
			c.AddNode(NewNode(id, "A100", 8))
		}
		for _, want := range []int{2, 3, 5, 7, 9} {
			got := list(c.Candidates(whole))
			if len(got) != 1 || got[0].ID != want {
				t.Fatalf("Candidates = %v, want [%d]", ids(got), want)
			}
			got[0].SetCordoned(true)
		}
		c.Node(7).SetCordoned(false)
		c.Node(3).SetCordoned(false)
		if got := list(c.Candidates(whole)); len(got) != 1 || got[0].ID != 3 {
			t.Fatalf("Candidates = %v, want [3]", ids(got))
		}
	})

	t.Run("oversized and full", func(t *testing.T) {
		c := NewHomogeneous("A100", 2, 8)
		for _, g := range []float64{9, 1e6, 1e300, math.Inf(1)} {
			if got := list(c.Candidates(newTask(2, task.HP, 1, g))); len(got) != 0 {
				t.Fatalf("a %v-card pod is offered %v", g, ids(got))
			}
		}
	})
}

// TestFullClusterOffersNothing is the failed-call work gate: with every
// card taken the index holds no node at all, so a call for any shape
// has nothing to visit.
func TestFullClusterOffersNothing(t *testing.T) {
	c := NewHeterogeneous([]Pool{{Model: "A100", Nodes: 50, GPUsPerNode: 8}, {Model: "A10", Nodes: 50, GPUsPerNode: 4}})
	for i, n := range c.nodes {
		typ := task.Type(i % 2)
		for k := 0; k < n.Capacity(); k += 2 {
			if err := n.PlacePod(newTask(i*10+k, typ, 1, 1)); err != nil {
				t.Fatal(err)
			}
			for h := 0; h < 2; h++ {
				if err := n.PlacePod(newTask(i*10+k+1, typ, 1, 0.5)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, ix := range c.models {
		for k := range ix.free {
			if len(ix.free[k])+len(ix.pristine[k]) != 0 {
				t.Fatalf("a full cluster still files %d nodes under %d", len(ix.free[k])+len(ix.pristine[k]), k)
			}
		}
	}
	for _, tk := range probes(c) {
		if got := list(c.Candidates(tk)); len(got) != 0 {
			t.Fatalf("%v is offered %v", tk, ids(got))
		}
		if err := checkKernel(c, tk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNodeStaysCompact pins the Node size the 10,000-node scans were
// measured at: the index fields live in what version and the flags'
// padding used to occupy.
func TestNodeStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 176 {
		t.Fatalf("Node is %d bytes, want ≤ 176", size)
	}
}

// TestCandidatesAllocatesNothing: the walks need no buffer, so ranging
// over them allocates nothing.
func TestCandidatesAllocatesNothing(t *testing.T) {
	c := NewHomogeneous("A100", 64, 8)
	for i, n := range c.nodes[:32] {
		if err := n.PlacePod(newTask(i, task.HP, 1, float64(1+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	whole, frac := newTask(100, task.Spot, 1, 2), newTask(101, task.Spot, 1, 0.5)
	walked := 0
	if avg := testing.AllocsPerRun(100, func() {
		for range c.Candidates(whole) {
			walked++
		}
		for range c.Candidates(frac) {
			walked++
		}
		for range c.Fitting(whole) {
			walked++
		}
	}); avg != 0 || walked == 0 {
		t.Fatalf("%v allocations per call, %d nodes walked", avg, walked)
	}
}
