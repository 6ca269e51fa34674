package cluster

import (
	"container/heap"
	"iter"
	"math"

	"github.com/sjtucitlab/gfs/internal/task"
)

// modelIndex is the placement index over the nodes of one GPU model.
// Every schedulable node that can still host a pod without preemption
// sits in exactly one container, at position Node.slot, recomputed from
// the node's own state (Node.container) whenever that state moves:
//
//   - free[k]: nodes with k idle whole cards that are not pristine;
//     free[0] holds those with no idle card but fractional room left.
//     Unordered, so a move is a swap-remove.
//   - pristine[c]: nodes of capacity c that hold nothing and have never
//     recorded an eviction, as a min-heap on node ID. No score that
//     reads occupancy or eviction history tells its members apart, so
//     under an order whose last key is the lowest ID only the root wins.
//
// A down, cordoned or full node — no idle card, every card used to the
// brim — is in no container: nothing fits there without preemption.
type modelIndex struct {
	cl       *Cluster
	nodes    []*Node // the model's nodes in AddNode order
	free     [][]*Node
	pristine [][]*Node
}

// container names the container n belongs in: k+1 for free[k], -c for
// pristine[c], 0 for none. Fullness is decided by walking the cards —
// exact, where a test on the float aggregates would not be.
func (n *Node) container() int16 {
	if n.down || n.cordoned {
		return 0
	}
	if int(n.wholeFree) == len(n.gpus) && n.hpUsed == 0 && n.spotUsed == 0 && len(n.evictions) == 0 {
		return -int16(n.wholeFree)
	}
	if n.wholeFree > 0 {
		return int16(n.wholeFree) + 1
	}
	for i := range n.gpus {
		if n.gpus[i].used < 1 {
			return 1
		}
	}
	return 0
}

// reindex moves n to the container its state now names.
func (ix *modelIndex) reindex(n *Node) {
	bin := n.container()
	if bin == n.bin {
		return
	}
	switch old := n.bin; {
	case old > 0:
		b := ix.free[old-1]
		last := len(b) - 1
		b[n.slot] = b[last]
		b[n.slot].slot = n.slot
		b[last] = nil
		ix.free[old-1] = b[:last]
	case old < 0:
		heap.Remove((*idHeap)(&ix.pristine[-old]), int(n.slot))
	}
	n.bin = bin
	switch {
	case bin > 0:
		n.slot = int32(len(ix.free[bin-1]))
		ix.free[bin-1] = append(ix.free[bin-1], n)
	case bin < 0:
		// Appending ascending IDs — how clusters are built — never sifts.
		heap.Push((*idHeap)(&ix.pristine[-bin]), n)
	}
}

// idHeap is a pristine class as container/heap sees it: a min-heap on
// node ID that keeps every member's slot at its heap position.
type idHeap []*Node

func (h idHeap) Len() int           { return len(h) }
func (h idHeap) Less(i, j int) bool { return h[i].ID < h[j].ID }
func (h idHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = int32(i), int32(j)
}

func (h *idHeap) Push(n any) {
	n.(*Node).slot = int32(len(*h))
	*h = append(*h, n.(*Node))
}

func (h *idHeap) Pop() any {
	old, last := *h, len(*h)-1
	n := old[last]
	old[last] = nil
	*h = old[:last]
	return n
}

// walk yields, until yield returns false, the nodes of the walked
// models one pod of tk fits on without preemption, in ascending idle
// order: free[0] (fractional pods only, filtered card by card), then
// for each k from the pod's card count up free[k] and pristine[k] (with
// collapse, its root alone), each with floor k − ½ (−∞ once the cluster
// is loose): a bound under the idle cards of it and every later node,
// whatever their capacity, a half card wider than any rounding in the
// usage sums. yield must not change the cluster.
func (c *Cluster) walk(tk *task.Task, collapse bool, yield func(*Node, float64) bool) {
	models := c.models
	if tk.GPUModel != "" {
		one := [1]*modelIndex{c.byModel[tk.GPUModel]}
		if one[0] == nil {
			return
		}
		models = one[:]
	}
	top, half := c.MaxCapacity(tk.GPUModel), -0.5
	if c.loose {
		half = math.Inf(-1)
	}
	floor := func(k int) float64 { return float64(k) + half }
	need := 1
	if g := tk.GPUsPerPod; g >= 1 {
		// Capped one past the largest node, where no loop below runs.
		need = int(min(g, float64(top+1)))
	} else {
		// A fractional pod also fits beside same-class tenants on a
		// partly used card; only the per-card walk can tell.
		for _, ix := range models {
			for _, n := range ix.free[0] {
				if n.CanFitPod(tk) && !yield(n, floor(0)) {
					return
				}
			}
		}
	}
	for k := need; k <= top; k++ {
		for _, ix := range models {
			if k >= len(ix.free) {
				continue
			}
			pristine := ix.pristine[k]
			if collapse && len(pristine) > 1 {
				pristine = pristine[:1] // the heap's root: the class's lowest ID
			}
			for _, nodes := range [2][]*Node{ix.free[k], pristine} {
				for _, n := range nodes {
					if !yield(n, floor(k)) {
						return
					}
				}
			}
		}
	}
}

// MaxCapacity returns the largest capacity among the cluster's nodes of
// model ("" for every model): the C under which a walk's floor f bounds
// the idle share of every node from there on by f/C.
func (c *Cluster) MaxCapacity(model string) int {
	top := 0
	for _, ix := range c.models {
		if model == "" || ix.nodes[0].Model == model {
			top = max(top, len(ix.free)-1)
		}
	}
	return top
}

// Candidates walks the nodes among which the best host for one pod of
// tk must lie under any preference order that reads only a node's
// occupancy and eviction history and breaks ties on the lowest ID —
// every non-pristine node the pod fits on without preemption, and the
// lowest-ID member of each pristine class large enough — in walk order
// with walk's floors. The loop body must not change the cluster.
func (c *Cluster) Candidates(tk *task.Task) iter.Seq2[*Node, float64] {
	return func(yield func(*Node, float64) bool) { c.walk(tk, true, yield) }
}

// Fitting walks every node one pod of tk fits on without preemption:
// Candidates without the pristine-class collapse, for callers whose
// preference reads more of a node (its position, say).
func (c *Cluster) Fitting(tk *task.Task) iter.Seq2[*Node, float64] {
	return func(yield func(*Node, float64) bool) { c.walk(tk, false, yield) }
}
