// Package pts implements GFS's Preemptive Task Scheduler (§3.4): the
// non-preemptive path with its three scoring criteria — GPU packing
// (Eq. 13), homogeneous co-location (Eq. 14) and eviction awareness
// with a circuit breaker (Eqs. 15–16) — and the preemptive path with
// waste-aware victim selection (Eq. 17, Alg. 2) and minimum-cost node
// choice (Eq. 19).
package pts

import (
	"cmp"
	"math"
	"slices"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Config holds the PTS parameters (Table 4).
type Config struct {
	// Gamma balances short- vs long-term eviction history (Eq. 15).
	Gamma float64
	// ShortWindow and LongWindow are the eviction history horizons
	// (1 h and 24 h in production).
	ShortWindow, LongWindow simclock.Duration
	// PenaltyM is the eviction penalty intensity m (Eq. 16).
	PenaltyM float64
	// Beta weights the usage-impact term of the preemption cost
	// (Eq. 19).
	Beta float64
	// BreakerDuration is how long a node stays blacklisted for
	// spot placements after its spot Score3 reaches 0.
	BreakerDuration simclock.Duration
	// DisableCoLocation and DisableEvictionAware support the GFS-s
	// ablation (packing only).
	DisableCoLocation    bool
	DisableEvictionAware bool
	// RandomPreemption replaces waste-aware victim selection with
	// arbitrary choice (GFS-p ablation).
	RandomPreemption bool
}

// DefaultConfig returns Table 4's settings.
func DefaultConfig() Config {
	return Config{
		Gamma:           0.8,
		ShortWindow:     simclock.Hour,
		LongWindow:      24 * simclock.Hour,
		PenaltyM:        3,
		Beta:            0.5,
		BreakerDuration: simclock.Hour,
	}
}

// Scheduler is the PTS implementation of sched.Scheduler.
type Scheduler struct {
	cfg Config
	// blacklist is the circuit breaker's state: node ID → the time its
	// spot blacklisting ends. Scores are not kept: bestNode's bounded
	// walk of the placement index scores few enough nodes afresh.
	blacklist map[int]simclock.Time
	// visited counts the nodes bestNode scored on Eqs. 13–14, rated
	// those it also scored on Eq. 16.
	visited, rated uint64

	// plans is the preemption planner's memo and workspace.
	plans planMemo
}

// planMemo is what preemption planning keeps from plan to plan. Within
// one instant, on one cluster, for one pod size, a node's trimmed victim
// set and its Σwaste read nothing but the node's own state and its
// tenants' wastes as of that instant, and neither moves unless the node
// changes: an entry stands while its node's change counter reads what it
// read when the entry was made. Only Eq. 19 reads more — the G and F
// counts, the victims of the gang's earlier pods — so it is evaluated
// afresh on every plan.
type planMemo struct {
	// The key every entry was made under; a plan under another key
	// moves gen on, which retires all of them, and empties the arena.
	cl   *cluster.Cluster
	now  simclock.Time
	need int
	gen  uint64
	// nodes holds one entry per node, by node ID (clusters number
	// their nodes densely from 0).
	nodes []planEntry
	// arena holds the victims of the key's entries; buf is the trim's
	// workspace.
	arena, buf []*task.Task
	// rejected counts nodes the O(1) reclaimable-cards test ruled out,
	// costed those whose victim set was built, reused those whose entry
	// stood. A plan that never reused would cost costed+reused nodes.
	rejected, costed, reused uint64
}

// planEntry is one node's memoized victim set: arena[lo:hi], in task-ID
// order, with its Σwaste summed in that order; ok is false where the
// node is no candidate after all.
type planEntry struct {
	gen     uint64
	waste   float64
	changes uint32
	lo, hi  int32
	ok      bool
}

// entry returns n's entry, growing the table to cover n's ID.
func (m *planMemo) entry(n *cluster.Node) *planEntry {
	if n.ID >= len(m.nodes) {
		m.nodes = append(m.nodes, make([]planEntry, max(n.ID+1, len(m.cl.Nodes()))-len(m.nodes))...)
	}
	return &m.nodes[n.ID]
}

// New creates a PTS scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg, blacklist: make(map[int]simclock.Time)}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "GFS" }

// Less implements the queue order of §3.4.2: HP before spot, then
// larger GPU requests, more pods, earlier submissions.
func (s *Scheduler) Less(a, b *task.Task) bool {
	if a.Type != b.Type {
		return a.Type == task.HP
	}
	if a.TotalGPUs() != b.TotalGPUs() {
		return a.TotalGPUs() > b.TotalGPUs()
	}
	if a.Pods != b.Pods {
		return a.Pods > b.Pods
	}
	return a.Submit < b.Submit
}

// Schedule implements Algorithm 3: non-preemptive first (Algorithm 1,
// each pod on its bestNode); for HP tasks that fail, preemptive
// scheduling (Algorithm 2, each pod on its bestPreemption node after
// evicting that node's victim set). On failure the error is
// sched.ErrUnschedulable.
func (s *Scheduler) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	dec, err := ctx.State.Gang(tk, func(int) (*cluster.Node, []*task.Task) {
		return s.bestNode(ctx, tk), nil
	})
	if err != nil && tk.Type == task.HP {
		return ctx.State.Gang(tk, func(evicted int) (*cluster.Node, []*task.Task) {
			p := s.bestPreemption(ctx, tk, evicted)
			return p.node, p.victims
		})
	}
	return dec, err
}

// occupancy evaluates the criteria Eq. 16 does not: packing (Eq. 13)
// and homogeneous co-location (Eq. 14).
func (s *Scheduler) occupancy(n *cluster.Node, tk *task.Task) (s1, s2 float64) {
	total := float64(n.Capacity())
	s1 = 1 - n.IdleGPUs()/total
	if !s.cfg.DisableCoLocation {
		if tk.Type == task.HP {
			s2 = n.HPGPUs() / total
		} else {
			s2 = n.SpotGPUs() / total
		}
	}
	return s1, s2
}

// score3 is eviction awareness with asymmetric penalties (Eq. 16) at
// eviction rate e. The conversion rounds p, so no platform fuses it
// into 1 − p.
func (s *Scheduler) score3(e float64, typ task.Type) float64 {
	if s.cfg.DisableEvictionAware {
		return 0.5
	}
	p := float64(0.01 * s.cfg.PenaltyM * e)
	if typ == task.HP {
		return math.Min(p, 1)
	}
	return math.Max(1-p, 0)
}

// spotBlocked reports whether the circuit breaker blacklists n for
// spot placement at now.
func (s *Scheduler) spotBlocked(n *cluster.Node, now simclock.Time) bool {
	until, ok := s.blacklist[n.ID]
	return ok && now < until
}

// tripBreaker blacklists a node whose spot Score3 collapsed to 0.
func (s *Scheduler) tripBreaker(n *cluster.Node, now simclock.Time) {
	s.blacklist[n.ID] = now.Add(s.cfg.BreakerDuration)
}

type scored struct {
	node       *cluster.Node
	s1, s2, s3 float64
}

// bestNode returns the single maximum of the lexicographic (score1,
// score2, score3, lowest-ID) order over the candidates for one pod
// (Algorithm 1); a total order, so candidate order does not matter.
// Pristine nodes tie on every score and cannot trip, so Candidates
// offers the lowest ID per capacity alone. They come in ascending idle
// order, each with a floor f under the idle share of every node from
// there on, so none left scores a score1 above 1 − f; the walk stops
// once the best score1 strictly exceeds that, and f's half card of
// margin outweighs any rounding. Score3 is computed only where (score1,
// score2) ties or beats the best. Alg. 1 line 7 trips the breaker on
// any whole-card spot candidate whose Score3 is 0, winner or not, so
// all are scored unless none can trip: for γ in [0, 1], m ≥ 0 and
// long > 0, Eqs. 15–16 are monotone in the counts, and Score3 at the
// cluster's largest possible eviction rate is above 0.
func (s *Scheduler) bestNode(ctx *sched.Context, tk *task.Task) *cluster.Node {
	c := &s.cfg
	breaker := tk.Type == task.Spot && !c.DisableEvictionAware && tk.GPUsPerPod >= 1
	every := breaker && (!(c.Gamma >= 0 && c.Gamma <= 1 && c.PenaltyM >= 0 && c.LongWindow > 0) ||
		s.score3(ctx.State.Cluster.MaxEvictionRate(c.Gamma, c.LongWindow), task.Spot) <= 0)
	var best scored
	for n, floor := range ctx.State.Cluster.Candidates(tk) {
		if !every && best.node != nil && best.s1 > 1-floor {
			break
		}
		s.visited++
		cand := scored{node: n}
		cand.s1, cand.s2 = s.occupancy(n, tk)
		if !every && best.node != nil && (cand.s1 < best.s1 || cand.s1 == best.s1 && cand.s2 < best.s2) {
			continue
		}
		s.rated++
		cand.s3 = s.score3(n.WeightedEvictionRate(ctx.Now, c.Gamma, c.ShortWindow, c.LongWindow), tk.Type)
		if breaker {
			// Alg. 1 line 7: whole-card spot pods require
			// Score3 > 0; tripping nodes enter the breaker
			// blacklist.
			if cand.s3 <= 0 {
				s.tripBreaker(n, ctx.Now)
				continue
			}
			if s.spotBlocked(n, ctx.Now) {
				continue
			}
		}
		if best.node == nil || scoredBetter(&cand, &best) {
			best = cand
		}
	}
	return best.node
}

// scoredBetter reports whether a precedes b in the node preference
// order.
func scoredBetter(a, b *scored) bool {
	if a.s1 != b.s1 {
		return a.s1 > b.s1
	}
	if a.s2 != b.s2 {
		return a.s2 > b.s2
	}
	if a.s3 != b.s3 {
		return a.s3 > b.s3
	}
	return a.node.ID < b.node.ID
}

// preemptCand is one node's preemption proposal: its trimmed victim
// set and Eq. 19 cost (ignored under the RandomPreemption ablation).
type preemptCand struct {
	node    *cluster.Node
	victims []*task.Task
	cost    float64
}

// bestPreemption runs the Algorithm 2 node loop for one pod: it
// evaluates every node's minimal victim set (descending-waste trimming)
// and returns the node with the lowest preemption cost (Eq. 19; lowest
// ID on ties) with its trimmed victim set. evictedSoFar feeds the |T_k|
// term so multi-pod placements account for earlier victims. Victim sets
// come from the plan memo where their nodes have not changed since the
// last plan of the same instant, cluster and pod size, and are built
// otherwise. The victims live in scheduler scratch, valid until the
// next call.
func (s *Scheduler) bestPreemption(ctx *sched.Context, tk *task.Task, evictedSoFar int) preemptCand {
	m := &s.plans
	need := tk.PodCards()
	cand := preemptCand{cost: math.Inf(1)}
	nodes := ctx.State.Cluster.NodesOfModel(tk.GPUModel)
	if s.cfg.RandomPreemption {
		// GFS-p ablation: arbitrary node choice — take the first
		// feasible node without costing it.
		for _, n := range nodes {
			if victims, ok := s.victimSet(ctx, n, need); ok {
				return preemptCand{node: n, victims: victims}
			}
		}
		return cand
	}
	if m.cl != ctx.State.Cluster || m.now != ctx.Now || m.need != need {
		m.cl, m.now, m.need = ctx.State.Cluster, ctx.Now, need
		m.gen++
		m.arena = m.arena[:0]
	}
	elapsed := ctx.ElapsedSeconds()
	for _, n := range nodes {
		if n.ReclaimableGPUs() < need {
			m.rejected++
			continue
		}
		e := m.entry(n)
		if e.gen == m.gen && e.changes == n.Changes() {
			m.reused++
		} else {
			victims, ok := s.victimSet(ctx, n, need)
			*e = planEntry{gen: m.gen, waste: wasteOf(victims, ctx.Now), changes: n.Changes(),
				lo: int32(len(m.arena)), hi: int32(len(m.arena) + len(victims)), ok: ok}
			m.arena = append(m.arena, victims...)
		}
		if !e.ok {
			continue
		}
		// Eq. 18's usage impact normalizes by S_k·T, "the total
		// execution time of GPUs in node n_k": per-node capacity
		// times elapsed time. A cluster-wide denominator would
		// shrink the waste term to noise and let the victim-count
		// term steer preemption onto huge gang tasks.
		gpuSeconds := float64(n.Capacity()) * elapsed
		cost := preemptionCost(ctx.G, ctx.F+evictedSoFar, int(e.hi-e.lo), e.waste, s.cfg.Beta, gpuSeconds)
		if cost < cand.cost || (cost == cand.cost && cand.node != nil && n.ID < cand.node.ID) {
			cand = preemptCand{node: n, victims: m.arena[e.lo:e.hi:e.hi], cost: cost}
		}
	}
	return cand
}

// victimSet returns the minimal victim set on n, in task-ID order,
// freeing need whole cards; ok is false when n is no candidate.
// Evicting every spot tenant frees at most the reclaimable cards, so
// nodes short of that — most of a contended cluster — fail in O(1)
// before any set is built. Victims are trimmed in descending waste
// order (Alg. 2 lines 8–11) so high-waste tasks survive preemption
// when possible. A node whose idle cards suffice is a candidate only
// if it hosts no spot task at all: the trim of a mixed node then
// spares every tenant, and a plan that preempts nobody there is left
// to the non-preemptive path (behaviour the golden logs pin). The
// result aliases the planner's workspace, valid until the next call.
func (s *Scheduler) victimSet(ctx *sched.Context, n *cluster.Node, need int) (victims []*task.Task, ok bool) {
	if n.ReclaimableGPUs() < need {
		return nil, false
	}
	s.plans.costed++
	buf := n.AppendSpotTasks(s.plans.buf[:0])
	s.plans.buf = buf
	if s.cfg.RandomPreemption {
		// GFS-p ablation: accumulate victims in arbitrary (ID)
		// order until the requirement is met, waste-blind.
		for i := range buf {
			if n.WholeFreeGPUsWithout(buf[:i+1]) >= need {
				return buf[:i+1], true
			}
		}
		return buf, true
	}
	// Waste-aware trim (Alg. 2): spare the highest-waste victims
	// first. buf[:lo] is spared, buf[lo:i] must go, buf[i:] is still
	// undecided (and counted as going).
	now := ctx.Now
	slices.SortFunc(buf, func(a, b *task.Task) int {
		if wa, wb := a.Waste(now), b.Waste(now); wa != wb {
			return cmp.Compare(wb, wa)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	lo := 0
	for i := range buf {
		buf[lo], buf[i] = buf[i], buf[lo]
		if n.WholeFreeGPUsWithout(buf[lo+1:]) >= need {
			lo++
		}
	}
	victims = buf[lo:]
	slices.SortFunc(victims, func(a, b *task.Task) int { return cmp.Compare(a.ID, b.ID) })
	return victims, len(victims) > 0 || len(buf) == 0
}

// preemptionCost implements the simplified Eq. (19) for a victim set of
// t tasks whose wastes sum to wasteSum:
//
//	cost(n) = (F+|T|)/(G+F+|T|) + β·Σϑ/(Σ S·T)
func preemptionCost(g, f, t int, wasteSum, beta, gpuSeconds float64) float64 {
	denom := float64(g + f + t)
	evictTerm := 0.0
	if denom > 0 {
		evictTerm = float64(f+t) / denom
	}
	return evictTerm + beta*wasteSum/gpuSeconds
}

// wasteOf sums the victims' wastes at now (Eq. 17) in slice order.
func wasteOf(victims []*task.Task, now simclock.Time) float64 {
	sum := 0.0
	for _, v := range victims {
		sum += v.Waste(now)
	}
	return sum
}
