package baselines

import (
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// YARNCS models the YARN capacity scheduler: FCFS queues, best-fit
// placement (the node with the least idle capacity that fits), and
// preemption of the most recently launched spot containers when HP
// tasks need resources.
type YARNCS struct{}

// NewYARNCS creates the scheduler.
func NewYARNCS() *YARNCS { return &YARNCS{} }

// Name implements sched.Scheduler.
func (*YARNCS) Name() string { return "YARN-CS" }

// Less implements sched.Scheduler (FCFS with HP priority).
func (*YARNCS) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// Schedule implements sched.Scheduler.
func (*YARNCS) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	// Best fit: minimize remaining idle capacity.
	dec, err := placeBy(ctx, tk, func(n *cluster.Node) float64 {
		return n.IdleGPUs()
	})
	if err == nil || tk.Type != task.HP {
		return dec, err
	}
	// Preempt: fewest victims; ties broken by most recently
	// launched victims first (classic capacity-scheduler policy).
	return preemptBy(ctx, tk,
		func(n *cluster.Node, need int) []*task.Task {
			order := n.SpotTasks()
			sort.Slice(order, func(i, j int) bool {
				if order[i].StartedAt != order[j].StartedAt {
					return order[i].StartedAt > order[j].StartedAt
				}
				return order[i].ID < order[j].ID
			})
			return minimalVictims(n, need, order)
		},
		func(n *cluster.Node, victims []*task.Task) float64 {
			return float64(len(victims))
		},
	)
}
