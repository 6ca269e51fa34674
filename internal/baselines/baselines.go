// Package baselines implements the four comparison schedulers of
// §4.1 — YARN-CS, Chronus, Lyra and FGD — plus the static-quota
// first-fit scheduler that models the pre-GFS production
// configuration (Figs. 1, 5, 9). Each adapts its published policy to
// the shared sched.Scheduler interface at the fidelity the paper's
// own re-implementations use.
package baselines

import (
	"iter"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// fcfsLess is the shared HP-first, then-FCFS queue order.
func fcfsLess(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// placeBy places all pods of tk, choosing each pod's node by the
// given score (lower is better) among nodes that fit. It returns the
// committed decision, or sched.ErrUnschedulable with nothing placed.
// The score may read only a node's occupancy and ID: untouched nodes
// of one capacity then tie down to the ID, and Candidates offers just
// the lowest of them.
func placeBy(ctx *sched.Context, tk *task.Task, score func(n *cluster.Node) float64) (*sched.Decision, error) {
	return placePods(ctx, tk, false, nil, score)
}

// placePods places all pods of tk, each on the best-scored node (ok ==
// nil admits all) among the cluster's Candidates for it — or, with
// every set, among all Fitting nodes, for a filter or score that tells
// two empty nodes apart by more than their ID.
func placePods(ctx *sched.Context, tk *task.Task, every bool, ok func(*cluster.Node) bool, score func(*cluster.Node) float64) (*sched.Decision, error) {
	cl := ctx.State.Cluster
	return ctx.State.Gang(tk, func(int) (*cluster.Node, []*task.Task) {
		if every {
			return bestScored(cl.Fitting(tk), ok, score), nil
		}
		return bestScored(cl.Candidates(tk), ok, score), nil
	})
}

// bestScored picks one pod's node: the argmin of score over the
// fitting nodes (ok == nil admits all), lowest node ID on ties — a
// total order, so the walk's order does not matter.
func bestScored(fitting iter.Seq2[*cluster.Node, float64], ok func(*cluster.Node) bool, score func(*cluster.Node) float64) *cluster.Node {
	var best *cluster.Node
	bestScore := 0.0
	for n := range fitting {
		if ok != nil && !ok(n) {
			continue
		}
		s := score(n)
		if best == nil || s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// preemptBy evicts spot tasks to make room for every pod of the HP
// task tk. For each pod it scans nodes, asks victimsFor for the
// eviction plan (nil = node infeasible), scores plans with planCost
// (lower better), applies the best, and places the pod.
func preemptBy(
	ctx *sched.Context, tk *task.Task,
	victimsFor func(n *cluster.Node, need int) []*task.Task,
	planCost func(n *cluster.Node, victims []*task.Task) float64,
) (*sched.Decision, error) {
	need := tk.PodCards()
	nodes := ctx.State.Cluster.NodesOfModel(tk.GPUModel)
	return ctx.State.Gang(tk, func(int) (*cluster.Node, []*task.Task) {
		best := bestPlan(nodes, need, victimsFor, planCost)
		return best.node, best.victims
	})
}

// planCand is one node's eviction plan and its cost.
type planCand struct {
	node    *cluster.Node
	victims []*task.Task
	cost    float64
}

// bestPlan picks one pod's preemption plan: the cheapest eviction plan
// over the candidate nodes, lowest node ID on ties.
func bestPlan(nodes []*cluster.Node, need int, victimsFor func(n *cluster.Node, need int) []*task.Task, planCost func(n *cluster.Node, victims []*task.Task) float64) planCand {
	var best planCand
	for _, n := range nodes {
		// No subset of a node's spot tasks frees more than its
		// reclaimable cards: reject in O(1) before ordering victims.
		if n.ReclaimableGPUs() < need {
			continue
		}
		victims := victimsFor(n, need)
		if victims == nil {
			continue
		}
		c := planCost(n, victims)
		if best.node == nil || c < best.cost || (c == best.cost && n.ID < best.node.ID) {
			best = planCand{node: n, victims: victims, cost: c}
		}
	}
	return best
}

// minimalVictims returns the smallest prefix (in the given order) of
// the node's spot tasks whose eviction frees need cards, or nil when
// infeasible. When the node already fits without evictions it returns
// an empty, non-nil slice.
func minimalVictims(n *cluster.Node, need int, order []*task.Task) []*task.Task {
	if n.WholeFreeGPUs() >= need {
		return []*task.Task{}
	}
	for i := range order {
		if n.WholeFreeGPUsWithout(order[:i+1]) >= need {
			return order[:i+1]
		}
	}
	return nil
}
