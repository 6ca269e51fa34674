package baselines

import (
	"slices"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Chronus models the lease-based deadline scheduler of Gao et al.
// (SoCC '21) as the paper adapts it: HP tasks map to SLO tasks with
// 20-minute leases, spot tasks to best-effort tasks with 5-minute
// leases. Tasks are never preempted mid-lease; lease renewal costs a
// context-switch overhead, which inflates SLO-task completion times
// (the paper observes Chronus trading HP JCT for spot JCT).
type Chronus struct {
	// HPLease and SpotLease are the lease durations.
	HPLease, SpotLease simclock.Duration
	// SwitchCost is the per-lease-renewal overhead added to a
	// task's runtime.
	SwitchCost simclock.Duration

	plans plans
}

// NewChronus creates the scheduler with the paper's lease settings
// (20 min / 5 min).
func NewChronus() *Chronus {
	return &Chronus{
		HPLease:    20 * simclock.Minute,
		SpotLease:  5 * simclock.Minute,
		SwitchCost: 2 * simclock.Minute,
	}
}

// Name implements sched.Scheduler.
func (*Chronus) Name() string { return "Chronus" }

// Less implements sched.Scheduler.
func (*Chronus) Less(a, b *task.Task) bool { return fcfsLess(a, b) }

// InflateRuntime implements sched.RuntimeInflater: every lease
// renewal beyond the first costs SwitchCost.
func (c *Chronus) InflateRuntime(tk *task.Task) simclock.Duration {
	lease := c.SpotLease
	if tk.Type == task.HP {
		lease = c.HPLease
	}
	remaining := tk.Remaining()
	if remaining <= lease {
		return 0
	}
	renewals := int64((remaining - 1) / lease)
	return simclock.Duration(renewals) * c.SwitchCost
}

// leaseExpired reports whether a running spot task has used up its
// current lease (and may therefore be displaced).
func (c *Chronus) leaseExpired(v *task.Task, now simclock.Time) bool {
	return now.Sub(v.StartedAt) >= c.SpotLease
}

// pick is best fit: the node with the least idle capacity left, a
// score idle-bounded by definition.
func (*Chronus) pick(cl *cluster.Cluster, tk *task.Task) *cluster.Node {
	return bestScored(cl.Candidates(tk), true, nil, (*cluster.Node).IdleGPUs)
}

// Schedule implements sched.Scheduler: best-fit placement; HP tasks
// may displace best-effort tasks, but only those whose lease has
// expired (no mid-lease preemption).
func (c *Chronus) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	dec, err := placeBy(ctx, tk, c.pick)
	if err == nil || tk.Type != task.HP {
		return dec, err
	}
	return preemptBy(ctx, tk, &c.plans,
		func(n *cluster.Node, dst []*task.Task) []*task.Task {
			order := n.AppendSpotTasks(dst)
			return slices.DeleteFunc(order, func(v *task.Task) bool { return !c.leaseExpired(v, ctx.Now) })
		},
		func(n *cluster.Node, victims []*task.Task) float64 {
			return float64(len(victims))
		},
	)
}
