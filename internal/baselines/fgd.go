package baselines

import (
	"cmp"
	"slices"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// FGD models Fragmentation Gradient Descent (Weng et al., ATC '23)
// adapted from in-card to in-node granularity as the paper describes:
// each pod goes to the node whose fragmentation measure grows least.
// FGD has no notion of workload class, so HP and spot mix freely and
// HP demand surges evict whatever is in the way.
type FGD struct{ plans plans }

// NewFGD creates the scheduler.
func NewFGD() *FGD { return &FGD{} }

// Name implements sched.Scheduler.
func (*FGD) Name() string { return "FGD" }

// Less implements sched.Scheduler.
func (*FGD) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// pick takes the node whose fragmentation grows least. The growth is
// no bound on idle cards, so every candidate is scored.
func (*FGD) pick(cl *cluster.Cluster, tk *task.Task) *cluster.Node {
	return bestScored(cl.Candidates(tk), false, nil, func(n *cluster.Node) float64 { return fragDelta(n, tk) })
}

// Schedule implements sched.Scheduler.
func (f *FGD) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	dec, err := placeBy(ctx, tk, f.pick)
	if err == nil || tk.Type != task.HP {
		return dec, err
	}
	// Fragmentation-blind preemption: take the node with the most
	// spot capacity, evicting in ID order.
	return preemptBy(ctx, tk, &f.plans,
		func(n *cluster.Node, dst []*task.Task) []*task.Task {
			order := n.AppendSpotTasks(dst)
			slices.SortFunc(order, func(a, b *task.Task) int { return cmp.Compare(a.ID, b.ID) })
			return order
		},
		func(n *cluster.Node, victims []*task.Task) float64 {
			return -n.SpotGPUs()
		},
	)
}

// fragDelta estimates the fragmentation increase if one pod of tk
// landed on n.
func fragDelta(n *cluster.Node, tk *task.Task) float64 {
	before := n.Fragmentation()
	idleAfter := n.WholeFreeGPUs() - tk.PodCards()
	if idleAfter < 0 {
		idleAfter = 0
	}
	after := fragOf(idleAfter)
	return after - before
}

// fragOf mirrors cluster.Node.Fragmentation for a hypothetical idle
// count.
func fragOf(idle int) float64 {
	if idle <= 0 || idle >= 8 {
		return 0
	}
	best := 1
	for _, s := range []int{8, 4, 2, 1} {
		if s <= idle {
			best = s
			break
		}
	}
	return float64(idle - best)
}
