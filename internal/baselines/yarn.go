package baselines

import (
	"cmp"
	"slices"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// YARNCS models the YARN capacity scheduler: FCFS queues, best-fit
// placement (the node with the least idle capacity that fits), and
// preemption of the most recently launched spot containers when HP
// tasks need resources.
type YARNCS struct{ plans plans }

// NewYARNCS creates the scheduler.
func NewYARNCS() *YARNCS { return &YARNCS{} }

// Name implements sched.Scheduler.
func (*YARNCS) Name() string { return "YARN-CS" }

// Less implements sched.Scheduler (FCFS with HP priority).
func (*YARNCS) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// pick is best fit: the node with the least idle capacity left, a
// score idle-bounded by definition.
func (*YARNCS) pick(cl *cluster.Cluster, tk *task.Task) *cluster.Node {
	return bestScored(cl.Candidates(tk), true, nil, (*cluster.Node).IdleGPUs)
}

// Schedule implements sched.Scheduler.
func (y *YARNCS) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	dec, err := placeBy(ctx, tk, y.pick)
	if err == nil || tk.Type != task.HP {
		return dec, err
	}
	// Preempt: fewest victims; ties broken by most recently
	// launched victims first (classic capacity-scheduler policy).
	return preemptBy(ctx, tk, &y.plans,
		func(n *cluster.Node, dst []*task.Task) []*task.Task {
			order := n.AppendSpotTasks(dst)
			slices.SortFunc(order, func(a, b *task.Task) int {
				if a.StartedAt != b.StartedAt {
					return cmp.Compare(b.StartedAt, a.StartedAt)
				}
				return cmp.Compare(a.ID, b.ID)
			})
			return order
		},
		func(n *cluster.Node, victims []*task.Task) float64 {
			return float64(len(victims))
		},
	)
}
