package baselines

import (
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// StaticFirstFit models the pre-GFS production scheduler the paper's
// observations criticize (Obs. 2–3, Fig. 1): first-fit placement in
// node-ID order with no workload-type awareness. Pair it with
// sched.StaticQuota to reproduce the static spot quota regime.
type StaticFirstFit struct{ plans plans }

// NewStaticFirstFit creates the scheduler.
func NewStaticFirstFit() *StaticFirstFit { return &StaticFirstFit{} }

// Name implements sched.Scheduler.
func (*StaticFirstFit) Name() string { return "StaticFirstFit" }

// Less implements sched.Scheduler.
func (*StaticFirstFit) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// pick is first fit: the lowest node ID that fits. An ID says nothing
// of idle cards, so every candidate is scored.
func (*StaticFirstFit) pick(cl *cluster.Cluster, tk *task.Task) *cluster.Node {
	return bestScored(cl.Candidates(tk), false, nil, func(n *cluster.Node) float64 { return float64(n.ID) })
}

// Schedule implements sched.Scheduler.
func (f *StaticFirstFit) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	dec, err := placeBy(ctx, tk, f.pick)
	if err == nil || tk.Type != task.HP {
		return dec, err
	}
	// Preempt on the first node (by ID) with enough evictable spot
	// capacity; victims in ID order, oblivious to waste.
	return preemptBy(ctx, tk, &f.plans, (*cluster.Node).AppendSpotTasks,
		func(n *cluster.Node, victims []*task.Task) float64 {
			return float64(n.ID)
		},
	)
}
