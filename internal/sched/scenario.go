package sched

import (
	"hash/fnv"
	"math/rand"
	"sort"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// ScenarioOp is one kind of timed cluster mutation.
type ScenarioOp uint8

const (
	// OpReclaimSpot evicts running spot tasks until the requested
	// fraction of currently held spot GPUs is reclaimed (a spot
	// reclamation burst). It sweeps the simulator's tasks in the order
	// they joined its books: a preload in the caller's order, a stream
	// in arrival order, then routed and migrated arrivals.
	OpReclaimSpot ScenarioOp = iota
	// OpDomainDown fails every node in a failure domain atomically
	// (one timestamp, ID order) — a correlated rack or zone outage:
	// every task with pods on a failed node is killed (gang tasks lose
	// all their pods cluster-wide) and requeued, and the nodes leave
	// the schedulable pool and capacity totals. With CascadeP > 0 the
	// failure spreads to each sibling domain independently with that
	// probability after CascadeDelay, halving the probability per hop.
	OpDomainDown
	// OpDomainUp restores every failed node in a domain.
	OpDomainUp
)

// String implements fmt.Stringer.
func (o ScenarioOp) String() string {
	switch o {
	case OpReclaimSpot:
		return "ReclaimSpot"
	case OpDomainDown:
		return "DomainDown"
	case OpDomainUp:
		return "DomainUp"
	default:
		return "ScenarioOp(?)"
	}
}

// ScenarioAction is one timed mutation injected into the simulation's
// event queue. Only the fields relevant to Op are used.
type ScenarioAction struct {
	At simclock.Time
	Op ScenarioOp
	// Fraction of held spot GPUs to take in an OpReclaimSpot,
	// in (0, 1].
	Fraction float64
	// Domain targets OpDomainDown / OpDomainUp.
	Domain string
	// CascadeP is the per-sibling-domain probability that an
	// OpDomainDown spreads; zero disables cascading.
	CascadeP float64
	// CascadeDelay is the simulated lag before a spread failure
	// lands on a sibling domain.
	CascadeDelay simclock.Duration
	// Seed drives the cascade's probability draws. The effective
	// per-hop stream also mixes in the firing time and domain, so
	// repeated or shifted copies of one action draw independently
	// while every run of the same scenario stays byte-identical.
	Seed int64
}

// cascadeDecay multiplies a cascade's spread probability on each hop,
// so cascades always die out.
const cascadeDecay = 0.5

// SortActions orders actions by time, preserving the relative order
// of actions sharing a timestamp (stable), and returns its argument.
func SortActions(actions []ScenarioAction) []ScenarioAction {
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	return actions
}

// applyScenario performs one timed cluster mutation and reports
// whether a scheduling pass should follow. An action that changes
// nothing — an unknown domain, nodes already in the state asked for,
// nothing to reclaim — emits nothing, samples nothing and asks for no
// pass.
func (s *Simulator) applyScenario(a ScenarioAction) bool {
	cl := s.state.Cluster
	switch a.Op {
	case OpReclaimSpot:
		target := a.Fraction * cl.SpotGPUs("")
		if target <= 0 {
			return false
		}
		reclaimed := 0.0
		// s.tasks is in injection order (a migrant joins when it is
		// delivered), so the victim sweep is deterministic.
		for _, tk := range s.tasks {
			if reclaimed >= target {
				break
			}
			if tk.Type != task.Spot || tk.State != task.Running || s.migrated[tk.ID] {
				continue
			}
			locs := s.state.NodesOf(tk)
			s.state.ReleaseAll(tk)
			reclaimed += tk.TotalGPUs()
			s.evict(tk, CauseReclaimed, locs)
		}
		return s.progressed(false)
	case OpDomainDown, OpDomainUp:
		// Only the nodes the action actually moved count.
		changed := false
		for _, n := range cl.NodesInDomain(a.Domain) {
			if a.Op == OpDomainDown {
				changed = s.failNode(n) || changed
			} else {
				changed = s.restoreNode(n) || changed
			}
		}
		if !changed {
			return false
		}
		// Only a domain that newly lost nodes spreads, so a cascade
		// cannot bounce between already-dark domains.
		if a.Op == OpDomainDown && a.CascadeP > 0 {
			s.cascadeFailure(a)
		}
		return s.progressed(true)
	}
	return false
}

// failNode kills one node: emits NodeDown and releases and requeues
// its tasks. It reports whether the node was up.
func (s *Simulator) failNode(n *cluster.Node) bool {
	if n.Down() {
		return false
	}
	if s.hasObs {
		s.emit(Event{Kind: NodeDown, Node: n})
	}
	victims, locs := s.state.KillNode(n)
	n.SetDown(true)
	for i, v := range victims {
		s.evict(v, CauseNodeFailure, locs[i])
	}
	return true
}

// restoreNode returns a failed node to service. A cordoned node is
// being retired, and a restore does not undo a retirement, so every
// NodeUp follows that node's NodeDown. It reports whether the node
// needed restoring.
func (s *Simulator) restoreNode(n *cluster.Node) bool {
	if !n.Down() || n.Cordoned() {
		return false
	}
	n.SetDown(false)
	if s.hasObs {
		s.emit(Event{Kind: NodeUp, Node: n})
	}
	return true
}

// cascadeFailure schedules spread copies of a domain failure onto
// sibling domains. Each sibling is hit independently with probability
// a.CascadeP, after a.CascadeDelay, at a.CascadeP×cascadeDecay for the
// next hop. The draw stream is seeded from (Seed, firing time, domain), so
// it is deterministic per run yet independent across repeats of the
// same action at different times. Because spread copies are pushed
// mid-run, a copy landing at the exact timestamp of a task's finish
// resolves by push order (unlike pre-queued scenario actions, which
// always win such ties) — still deterministic, just not biased
// toward the failure.
func (s *Simulator) cascadeFailure(a ScenarioAction) {
	h := fnv.New64a()
	h.Write([]byte(a.Domain))
	rng := rand.New(rand.NewSource(a.Seed ^ int64(s.now)*0x5851F42D4C957F2D ^ int64(h.Sum64())))
	for _, sib := range s.state.Cluster.SiblingDomains(a.Domain) {
		if rng.Float64() >= a.CascadeP {
			continue
		}
		child := a
		child.Domain = sib
		child.CascadeP = a.CascadeP * cascadeDecay
		// Probabilities below 1% cannot meaningfully spread; cutting
		// them bounds cascade depth.
		if child.CascadeP < 0.01 {
			child.CascadeP = 0
		}
		child.At = s.now.Add(a.CascadeDelay)
		s.queue.Push(child.At, scenarioEvent{action: child})
	}
}
