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
	// OpNodeDown fails a node: every task with pods on it is killed
	// (gang tasks lose all their pods cluster-wide) and requeued,
	// and the node leaves the schedulable pool and capacity totals.
	OpNodeDown ScenarioOp = iota
	// OpNodeUp restores a previously failed or drained node.
	OpNodeUp
	// OpNodeDrain cordons a node and evicts its spot tasks; HP pods
	// run to completion and the node stays in capacity totals.
	OpNodeDrain
	// OpScaleOut adds a pool of fresh nodes to the cluster.
	OpScaleOut
	// OpReclaimSpot evicts running spot tasks until the requested
	// fraction of currently held spot GPUs is reclaimed (a spot
	// reclamation burst, oldest task IDs first).
	OpReclaimSpot
	// OpDomainDown fails every node in a failure domain atomically
	// (one timestamp, ID order) — a correlated rack or zone outage.
	// With CascadeP > 0 the failure spreads to each sibling domain
	// independently with that probability after CascadeDelay, with
	// the probability decaying by CascadeDecay per hop.
	OpDomainDown
	// OpDomainUp restores every failed or drained node in a domain.
	OpDomainUp
	// OpDomainDrain cordons every node in a domain and evicts their
	// spot tasks; HP pods run to completion.
	OpDomainDrain
)

// String implements fmt.Stringer.
func (o ScenarioOp) String() string {
	switch o {
	case OpNodeDown:
		return "NodeDown"
	case OpNodeUp:
		return "NodeUp"
	case OpNodeDrain:
		return "NodeDrain"
	case OpScaleOut:
		return "ScaleOut"
	case OpReclaimSpot:
		return "ReclaimSpot"
	case OpDomainDown:
		return "DomainDown"
	case OpDomainUp:
		return "DomainUp"
	case OpDomainDrain:
		return "DomainDrain"
	default:
		return "ScenarioOp(?)"
	}
}

// ScenarioAction is one timed mutation injected into the simulation's
// event queue. Only the fields relevant to Op are used.
type ScenarioAction struct {
	At simclock.Time
	Op ScenarioOp
	// NodeID targets OpNodeDown / OpNodeUp / OpNodeDrain.
	NodeID int
	// Pool sizes an OpScaleOut.
	Pool cluster.Pool
	// Fraction of held spot GPUs to take in an OpReclaimSpot,
	// in (0, 1].
	Fraction float64
	// Domain targets OpDomainDown / OpDomainUp / OpDomainDrain.
	Domain string
	// CascadeP is the per-sibling-domain probability that an
	// OpDomainDown spreads; zero disables cascading.
	CascadeP float64
	// CascadeDecay multiplies CascadeP on each hop (defaults to 0.5
	// when zero), so cascades always die out.
	CascadeDecay float64
	// CascadeDelay is the simulated lag before a spread failure
	// lands on a sibling domain.
	CascadeDelay simclock.Duration
	// Seed drives the cascade's probability draws. The effective
	// per-hop stream also mixes in the firing time and domain, so
	// repeated or shifted copies of one action draw independently
	// while every run of the same scenario stays byte-identical.
	Seed int64
}

// SortActions orders actions by time, preserving the relative order
// of actions sharing a timestamp (stable), and returns its argument.
func SortActions(actions []ScenarioAction) []ScenarioAction {
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	return actions
}

// applyScenario performs one timed cluster mutation and reports
// whether a scheduling pass should follow. An action that changes
// nothing — an unknown node or domain, a node already in the state
// asked for, nothing to reclaim — emits nothing, samples nothing and
// asks for no pass.
func (s *Simulator) applyScenario(a ScenarioAction) bool {
	cl := s.state.Cluster
	var nodes []*cluster.Node
	switch a.Op {
	case OpScaleOut:
		added := cl.AddPool(a.Pool)
		if s.hasObs {
			for _, n := range added {
				s.emit(Event{Kind: NodeUp, Node: n})
			}
		}
		return s.progressed(true)
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
	case OpNodeDown, OpNodeUp, OpNodeDrain:
		nodes = []*cluster.Node{cl.Node(a.NodeID)}
	case OpDomainDown, OpDomainUp, OpDomainDrain:
		nodes = cl.NodesInDomain(a.Domain)
	}
	// The node and domain ops are one per-node mutation over a node
	// list; only the nodes it actually moved count.
	changed := false
	for _, n := range nodes {
		switch a.Op {
		case OpNodeDown, OpDomainDown:
			changed = s.failNode(n) || changed
		case OpNodeUp, OpDomainUp:
			changed = s.restoreNode(n) || changed
		case OpNodeDrain, OpDomainDrain:
			changed = s.drainNode(n, false) || changed
		}
	}
	if !changed {
		return false
	}
	// Only a domain that newly lost nodes spreads, so a cascade cannot
	// bounce between already-dark domains.
	if a.Op == OpDomainDown && a.CascadeP > 0 {
		s.cascadeFailure(a)
	}
	// A cordoned node stays in the capacity totals.
	return s.progressed(a.Op != OpNodeDrain && a.Op != OpDomainDrain)
}

// failNode kills one node: emits NodeDown and releases and requeues
// its tasks. It reports whether the node was up.
func (s *Simulator) failNode(n *cluster.Node) bool {
	if n == nil || n.Down() {
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

// restoreNode returns a failed or drained node to service. It reports
// whether the node needed restoring.
func (s *Simulator) restoreNode(n *cluster.Node) bool {
	if n == nil || n.Schedulable() {
		return false
	}
	n.SetDown(false)
	if s.hasObs {
		s.emit(Event{Kind: NodeUp, Node: n})
	}
	return true
}

// drainNode cordons one node and evicts its spot tasks with the drain
// cause; HP pods run on. The cordon lands before the announcing event
// — NodeDown for a scenario drain, NodeRetired when the autoscaler is
// retiring the node — so observers never see a drained node still
// schedulable. It reports whether the node was schedulable.
func (s *Simulator) drainNode(n *cluster.Node, retiring bool) bool {
	if n == nil || !n.Schedulable() {
		return false
	}
	n.SetCordoned(true)
	if s.hasObs {
		if retiring {
			s.emit(Event{Kind: NodeRetired, Node: n, Tier: n.Tier})
		} else {
			s.emit(Event{Kind: NodeDown, Node: n})
		}
	}
	for _, v := range n.SpotTasks() {
		locs := s.state.NodesOf(v)
		s.state.ReleaseAll(v)
		s.evict(v, CauseDrained, locs)
	}
	return true
}

// cascadeFailure schedules spread copies of a domain failure onto
// sibling domains. Each sibling is hit independently with probability
// a.CascadeP, after a.CascadeDelay, at a.CascadeP×decay for the next
// hop. The draw stream is seeded from (Seed, firing time, domain), so
// it is deterministic per run yet independent across repeats of the
// same action at different times. Because spread copies are pushed
// mid-run, a copy landing at the exact timestamp of a task's finish
// resolves by push order (unlike pre-queued scenario actions, which
// always win such ties) — still deterministic, just not biased
// toward the failure.
func (s *Simulator) cascadeFailure(a ScenarioAction) {
	decay := a.CascadeDecay
	if decay <= 0 {
		decay = 0.5
	}
	h := fnv.New64a()
	h.Write([]byte(a.Domain))
	rng := rand.New(rand.NewSource(a.Seed ^ int64(s.now)*0x5851F42D4C957F2D ^ int64(h.Sum64())))
	for _, sib := range s.state.Cluster.SiblingDomains(a.Domain) {
		if rng.Float64() >= a.CascadeP {
			continue
		}
		child := a
		child.Domain = sib
		child.CascadeP = a.CascadeP * decay
		// Probabilities below 1% cannot meaningfully spread; cutting
		// them bounds cascade depth.
		if child.CascadeP < 0.01 {
			child.CascadeP = 0
		}
		child.At = s.now.Add(a.CascadeDelay)
		s.queue.Push(child.At, scenarioEvent{action: child})
	}
}
