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
	// spot blacklisting ends. Scores are not kept: the cluster's
	// placement index hands bestNode few enough nodes to score afresh.
	blacklist map[int]simclock.Time

	// pre is the preemption-planning workspace, reused across plans.
	pre preemptScratch
}

// preemptScratch is the preemption-planning workspace: two victim
// buffers — the node being costed and the leader so far, swapped when
// a node takes the lead, so planning allocates nothing — and the
// planner's work counts.
type preemptScratch struct {
	cur, lead []*task.Task
	// rejected counts nodes the O(1) reclaimable-cards test ruled out,
	// costed those whose victim set was built.
	rejected, costed uint64
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
			return s.bestPreemption(ctx, tk, evicted)
		})
	}
	return dec, err
}

// scores evaluates the three criteria for a node: the occupancy
// criteria (Eqs. 13–14) from the node's allocation state, eviction
// awareness (Eq. 16) from its history as of the clock.
func (s *Scheduler) scores(ctx *sched.Context, n *cluster.Node, tk *task.Task) (s1, s2, s3 float64) {
	total := float64(n.Capacity())
	// Criterion 1 (Eq. 13): prefer packed nodes.
	s1 = 1 - n.IdleGPUs()/total
	// Criterion 2 (Eq. 14): homogeneous co-location.
	if !s.cfg.DisableCoLocation {
		if tk.Type == task.HP {
			s2 = n.HPGPUs() / total
		} else {
			s2 = n.SpotGPUs() / total
		}
	}
	// Criterion 3 (Eq. 16): eviction awareness with asymmetric
	// penalties.
	if !s.cfg.DisableEvictionAware {
		e := n.WeightedEvictionRate(ctx.Now, s.cfg.Gamma, s.cfg.ShortWindow, s.cfg.LongWindow)
		p := 0.01 * s.cfg.PenaltyM * e
		if tk.Type == task.HP {
			s3 = math.Min(p, 1)
		} else {
			s3 = math.Max(1-p, 0)
		}
	} else {
		s3 = 0.5
	}
	return s1, s2, s3
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

// bestNode scores the candidates for one pod and keeps the single
// maximum of the lexicographic (score1, score2, score3, lowest-ID)
// order (Algorithm 1). Node-ID tie-breaking makes that a total order,
// so the argmax does not depend on the order candidates arrive in.
// The filter is the cluster's: Candidates yields every feasible node
// but the pristine ones — empty, never evicted from, so all three
// scores tie (0, 0, and 0 for HP or 1 for spot) — and of those the
// lowest ID per capacity, the only one that can win. The rest could
// not trip the breaker either: a trip needs a recorded eviction.
func (s *Scheduler) bestNode(ctx *sched.Context, tk *task.Task) *cluster.Node {
	var best scored
	for _, n := range ctx.State.Cluster.Candidates(tk) {
		s1, s2, s3 := s.scores(ctx, n, tk)
		if tk.Type == task.Spot && !s.cfg.DisableEvictionAware && tk.GPUsPerPod >= 1 {
			// Alg. 1 line 7: whole-card spot pods require
			// Score3 > 0; tripping nodes enter the breaker
			// blacklist.
			if s3 <= 0 {
				s.tripBreaker(n, ctx.Now)
				continue
			}
			if s.spotBlocked(n, ctx.Now) {
				continue
			}
		}
		cand := scored{node: n, s1: s1, s2: s2, s3: s3}
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
// term so multi-pod placements account for earlier victims. The victims
// live in scheduler scratch, valid until the next call.
func (s *Scheduler) bestPreemption(ctx *sched.Context, tk *task.Task, evictedSoFar int) (*cluster.Node, []*task.Task) {
	sc := &s.pre
	need := tk.PodCards()
	elapsed := ctx.ElapsedSeconds()
	cand := preemptCand{cost: math.Inf(1)}
	for _, n := range ctx.State.Cluster.NodesOfModel(tk.GPUModel) {
		victims, ok := s.victimSet(ctx, n, need, sc)
		if !ok {
			continue
		}
		if s.cfg.RandomPreemption {
			// GFS-p ablation: arbitrary node choice — take the
			// first feasible node without costing it.
			return n, victims
		}
		// Eq. 18's usage impact normalizes by S_k·T, "the total
		// execution time of GPUs in node n_k": per-node capacity
		// times elapsed time. A cluster-wide denominator would
		// shrink the waste term to noise and let the victim-count
		// term steer preemption onto huge gang tasks.
		gpuSeconds := float64(n.Capacity()) * elapsed
		cost := preemptionCost(ctx.G, ctx.F+evictedSoFar, victims, s.cfg.Beta, gpuSeconds, ctx.Now)
		if cost < cand.cost || (cost == cand.cost && cand.node != nil && n.ID < cand.node.ID) {
			cand = preemptCand{node: n, victims: victims, cost: cost}
			// The leader's victims stay put; later nodes are costed
			// in the other buffer.
			sc.cur, sc.lead = sc.lead, sc.cur
		}
	}
	return cand.node, cand.victims
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
// result aliases sc.cur.
func (s *Scheduler) victimSet(ctx *sched.Context, n *cluster.Node, need int, sc *preemptScratch) (victims []*task.Task, ok bool) {
	if n.ReclaimableGPUs() < need {
		sc.rejected++
		return nil, false
	}
	sc.costed++
	buf := n.AppendSpotTasks(sc.cur[:0])
	sc.cur = buf
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

// preemptionCost implements the simplified Eq. (19):
//
//	cost(n) = (F+|T|)/(G+F+|T|) + β·Σϑ/(Σ S·T)
func preemptionCost(g, f int, victims []*task.Task, beta, gpuSeconds float64, now simclock.Time) float64 {
	t := float64(len(victims))
	denom := float64(g+f) + t
	evictTerm := 0.0
	if denom > 0 {
		evictTerm = (float64(f) + t) / denom
	}
	wasteSum := 0.0
	for _, v := range victims {
		wasteSum += v.Waste(now)
	}
	return evictTerm + beta*wasteSum/gpuSeconds
}
