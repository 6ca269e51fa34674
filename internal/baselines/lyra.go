package baselines

import (
	"cmp"
	"slices"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Lyra models the elastic inference/training scheduler of Li et al.
// (EuroSys '23) as the paper adapts it: HP tasks map to inference,
// spot tasks to training. Lyra lends a bounded pool of nodes to
// training; spot tasks run only there, which keeps evictions rare but
// leaves spot queuing long whenever the loan pool saturates (the
// paper observes exactly this trade-off: e = 1.78% but high JQT). HP
// reclaims loaned nodes only as a last resort, displacing as few
// training tasks as possible.
type Lyra struct {
	// LoanFraction is the share of nodes (highest IDs) lendable to
	// spot tasks.
	LoanFraction float64

	// pool memoizes the loan pool — node → lendable — of cluster
	// poolOf at poolSize nodes; clusters only grow, so the size dates it.
	pool     map[*cluster.Node]bool
	poolOf   *cluster.Cluster
	poolSize int

	plans plans
}

// NewLyra creates the scheduler with the default 25% loan pool.
func NewLyra() *Lyra { return &Lyra{LoanFraction: 0.25} }

// Name implements sched.Scheduler.
func (*Lyra) Name() string { return "Lyra" }

// Less implements sched.Scheduler.
func (*Lyra) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// loanable reports whether n belongs to the loan pool of the cluster:
// the last LoanFraction of its model's nodes, by position.
func (l *Lyra) loanable(cl *cluster.Cluster, n *cluster.Node) bool {
	if size := len(cl.Nodes()); l.poolOf != cl || l.poolSize != size {
		l.pool, l.poolOf, l.poolSize = make(map[*cluster.Node]bool), cl, size
		for _, model := range cl.Models() {
			peers := cl.NodesOfModel(model)
			loanStart := int(float64(len(peers)) * (1 - l.LoanFraction))
			for i, m := range peers {
				if i >= loanStart && m.Model == model {
					l.pool[m] = true
				}
			}
		}
	}
	return l.pool[n]
}

// pick packs training tight on the loan pool alone; inference prefers
// the reserved pool (best fit) and spills into idle loan-pool capacity.
// Both scores are idle-bounded (a loan-pool node only adds 1000). The
// loan pool is a matter of position, so every fitting node is walked,
// not just Candidates.
func (l *Lyra) pick(cl *cluster.Cluster, tk *task.Task) *cluster.Node {
	if tk.Type == task.Spot {
		return bestScored(cl.Fitting(tk), true, func(n *cluster.Node) bool { return l.loanable(cl, n) }, (*cluster.Node).IdleGPUs)
	}
	return bestScored(cl.Fitting(tk), true, nil, func(n *cluster.Node) float64 {
		score := n.IdleGPUs()
		if l.loanable(cl, n) {
			score += 1000
		}
		return score
	})
}

// Schedule implements sched.Scheduler.
func (l *Lyra) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	dec, err := placeBy(ctx, tk, l.pick)
	if err == nil || tk.Type != task.HP {
		return dec, err
	}
	// Reclaim: minimize displaced training tasks.
	return preemptBy(ctx, tk, &l.plans,
		func(n *cluster.Node, dst []*task.Task) []*task.Task {
			order := n.AppendSpotTasks(dst)
			slices.SortFunc(order, func(a, b *task.Task) int {
				if pa, pb := n.PodsOf(a.ID), n.PodsOf(b.ID); pa != pb {
					return cmp.Compare(pb, pa) // biggest holdings free cards fastest
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
