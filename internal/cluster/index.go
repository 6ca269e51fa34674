package cluster

import (
	"container/heap"

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

// appendFitting appends the model's nodes that can host one pod of tk
// without preemption; with collapse set, each pristine class is
// represented by its lowest-ID member alone. When nothing fits it
// touches no node: the cost is one length test per container.
func (ix *modelIndex) appendFitting(out []*Node, tk *task.Task, collapse bool) []*Node {
	need := 1
	if g := tk.GPUsPerPod; g >= 1 {
		// Capped one past the largest node, where no loop below runs.
		need = int(min(g, float64(len(ix.free))))
	}
	for c := need; c < len(ix.pristine); c++ {
		h := ix.pristine[c]
		if collapse && len(h) > 1 {
			h = h[:1] // the heap's root: the class's lowest ID
		}
		out = append(out, h...)
	}
	for k := need; k < len(ix.free); k++ {
		out = append(out, ix.free[k]...)
	}
	if tk.GPUsPerPod < 1 {
		// A fractional pod also fits beside same-class tenants on a
		// partly used card; only the per-card walk can tell.
		for _, n := range ix.free[0] {
			if n.CanFitPod(tk) {
				out = append(out, n)
			}
		}
	}
	return out
}

// Candidates returns the nodes among which the best host for one pod
// of tk must lie under any preference order that reads only a node's
// occupancy and eviction history and breaks ties on the lowest ID:
// every non-pristine node the pod fits on without preemption, plus the
// lowest-ID member of each pristine class large enough. The slice is
// cluster-owned scratch, unordered, valid until the next call.
func (c *Cluster) Candidates(tk *task.Task) []*Node { return c.fitting(tk, true) }

// Fitting returns every node one pod of tk fits on without preemption
// — Candidates without the pristine-class collapse, for callers whose
// preference reads more of a node (its position, say). Same scratch.
func (c *Cluster) Fitting(tk *task.Task) []*Node { return c.fitting(tk, false) }

func (c *Cluster) fitting(tk *task.Task, collapse bool) []*Node {
	out := c.fit[:0]
	if tk.GPUModel != "" {
		if ix := c.byModel[tk.GPUModel]; ix != nil {
			out = ix.appendFitting(out, tk, collapse)
		}
	} else {
		for _, ix := range c.models {
			out = ix.appendFitting(out, tk, collapse)
		}
	}
	c.fit = out
	return out
}
