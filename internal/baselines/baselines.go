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

// placeBy places all pods of tk, each on the node pick chooses for it
// without preemption. It returns the committed decision, or
// sched.ErrUnschedulable with nothing placed.
func placeBy(ctx *sched.Context, tk *task.Task, pick func(*cluster.Cluster, *task.Task) *cluster.Node) (*sched.Decision, error) {
	return ctx.State.Gang(tk, func(int) (*cluster.Node, []*task.Task) { return pick(ctx.State.Cluster, tk), nil })
}

// bestScored picks one pod's node: the argmin of score over the walked
// nodes (ok == nil admits all), lowest node ID on ties. A score that
// reads only a node's occupancy and ID may walk the cluster's
// Candidates, where untouched nodes of one capacity tie down to the ID
// and only the lowest of them comes; any other walks all Fitting nodes.
// A bounded score is never below the node's idle cards, which the
// walk's floor bounds for the node at hand and every later one, so the
// walk stops at the first floor above the best score: no node from
// there on can win or tie.
func bestScored(fitting iter.Seq2[*cluster.Node, float64], bounded bool, ok func(*cluster.Node) bool, score func(*cluster.Node) float64) *cluster.Node {
	var best *cluster.Node
	bestScore := 0.0
	for n, floor := range fitting {
		if bounded && best != nil && bestScore < floor {
			break
		}
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
// task tk. For each pod it scans nodes, has order append each node's
// spot tasks to a buffer in the order it would evict them, takes the
// shortest prefix that frees the pod's cards as the node's plan, scores
// plans with planCost (lower better), applies the best, and places the
// pod.
func preemptBy(
	ctx *sched.Context, tk *task.Task, p *plans,
	order func(n *cluster.Node, dst []*task.Task) []*task.Task,
	planCost func(n *cluster.Node, victims []*task.Task) float64,
) (*sched.Decision, error) {
	need := tk.PodCards()
	nodes := ctx.State.Cluster.NodesOfModel(tk.GPUModel)
	return ctx.State.Gang(tk, func(int) (*cluster.Node, []*task.Task) {
		best := p.best(nodes, need, order, planCost)
		return best.node, best.victims
	})
}

// plans is a scheduler's preemption workspace: the node at hand's
// eviction order is built in cur, the best plan so far keeps its
// victims in kept, and the two swap when the plan at hand wins. The
// victims a plan returns are valid until the next one.
type plans struct{ cur, kept []*task.Task }

// planCand is one node's eviction plan and its cost.
type planCand struct {
	node    *cluster.Node
	victims []*task.Task
	cost    float64
}

// best picks one pod's preemption plan: the cheapest eviction plan
// over the candidate nodes, lowest node ID on ties.
func (p *plans) best(nodes []*cluster.Node, need int, order func(n *cluster.Node, dst []*task.Task) []*task.Task, planCost func(n *cluster.Node, victims []*task.Task) float64) planCand {
	var best planCand
	for _, n := range nodes {
		// No subset of a node's spot tasks frees more than its
		// reclaimable cards: reject in O(1) before ordering victims.
		if n.ReclaimableGPUs() < need {
			continue
		}
		p.cur = order(n, p.cur[:0])
		victims := minimalVictims(n, need, p.cur)
		if victims == nil {
			continue
		}
		c := planCost(n, victims)
		if best.node == nil || c < best.cost || (c == best.cost && n.ID < best.node.ID) {
			best = planCand{node: n, victims: victims, cost: c}
			p.cur, p.kept = p.kept, p.cur
		}
	}
	return best
}

// minimalVictims returns the smallest prefix (in the given order) of
// the node's spot tasks whose eviction frees need cards, or nil when
// infeasible. When the node already fits without evictions it returns
// an empty, non-nil slice.
//
// A whole-card tenant holds its cards alone, so while the prefix holds
// only whole-card tenants it frees the idle cards plus theirs; from the
// first fractional tenant on, which may share a card, each prefix is
// counted by a card walk.
func minimalVictims(n *cluster.Node, need int, order []*task.Task) []*task.Task {
	free := n.WholeFreeGPUs()
	if free >= need {
		return []*task.Task{}
	}
	if !n.Schedulable() {
		return nil
	}
	for i, v := range order {
		if v.GPUsPerPod < 1 {
			for ; i < len(order); i++ {
				if n.WholeFreeGPUsWithout(order[:i+1]) >= need {
					return order[:i+1]
				}
			}
			return nil
		}
		if free += n.PodsOf(v.ID) * v.PodCards(); free >= need {
			return order[:i+1]
		}
	}
	return nil
}
