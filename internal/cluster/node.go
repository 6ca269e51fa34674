// Package cluster models the GPU cluster substrate: nodes with whole
// and fractional GPU allocations, per-type occupancy (HP vs spot),
// per-node eviction history (used by the eviction-awareness score and
// circuit breaker), and fragmentation measures (used by the FGD
// baseline).
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// ErrInsufficient is returned when a node cannot satisfy an
// allocation request.
var ErrInsufficient = errors.New("cluster: insufficient GPU capacity")

// share is one task's slice of a card.
type share struct {
	taskID int
	frac   float64
}

// gpu is the state of a single card.
type gpu struct {
	// used is the allocated fraction in [0,1].
	used float64
	// shares lists taskID → fraction for fractional tenants; whole
	// cards have exactly one share of 1.0. A small slice beats a map
	// here: cards host at most a handful of tenants, and the
	// placement hot path iterates shares far more often than it
	// mutates them.
	shares []share
	// spot reports whether the current tenants are spot tasks.
	// HP and spot never share one card.
	spot bool
}

// shareOf returns the fraction held by taskID, or -1.
func (g *gpu) shareOf(taskID int) (int, float64) {
	for i := range g.shares {
		if g.shares[i].taskID == taskID {
			return i, g.shares[i].frac
		}
	}
	return -1, 0
}

// Node is one machine with a fixed number of identical GPUs.
type Node struct {
	ID    int
	Model string
	// Domain is the node's failure domain, a slash-separated path
	// from the coarsest to the finest level ("zone-0/rack-2").
	// Nodes sharing a domain fail together under correlated-failure
	// scenario actions; empty means no topology information.
	Domain string
	// Tier is the capacity tier the node is billed under ("spot",
	// "on-demand", "reserved"); empty means owned/reserved capacity
	// that predates any autoscaling. Autoscaled pools carry their
	// Pool.Tier here so collectors can price capacity churn.
	Tier string

	gpus []gpu

	// Aggregates, maintained incrementally.
	hpUsed   float64
	spotUsed float64
	// wholeFree counts cards with used == 0, kept in lockstep with
	// gpus so WholeFreeGPUs — the whole-card admission test run for
	// every node on every placement — is O(1) instead of a card scan.
	wholeFree int32
	// changes counts the runs of bump, for Changes. It shares
	// wholeFree's eight bytes, so Node does not grow.
	changes uint32
	// slot is the node's position inside its placement-index container
	// and ord its position in the owning cluster's node list (where the
	// usage totals file it): int32s, because Node must not grow
	// (spotCards).
	slot, ord int32
	// owner is the placement index of the node's model in the cluster
	// it was added to, if any; bump reports every change there.
	owner *modelIndex

	// evictions records the times of past spot evictions on this
	// node, oldest first, for the windowed rate of Eq. (15).
	evictions []simclock.Time

	// down marks a failed node: it holds no tasks, accepts no
	// placements, and is excluded from capacity totals.
	down bool
	// cordoned marks a draining node: it accepts no new placements
	// but keeps its running pods and stays in capacity totals.
	cordoned bool
	// bin names the placement-index container the node sits in, in
	// Node.container's encoding. An int16 in the flags' padding, which
	// caps a node at 32,766 cards.
	bin int16
	// spotCards counts cards in use whose tenants are all spot tasks
	// (HP and spot never share a card), maintained in lockstep with
	// wholeFree so the preemption feasibility test ReclaimableGPUs is
	// O(1) too. It is an int32 beside the flags so that it packs into
	// their padding: the 10,000-node placement scans are memory-bound
	// and a wider Node measurably slows them.
	spotCards int32

	// pods tracks how many pods of each task run here and the
	// per-pod GPU request, so victims can be released. Sorted by
	// task ID, which both makes lookups a binary search and lets
	// Tasks/SpotTasks return deterministic order without sorting.
	pods []podAlloc
}

type podAlloc struct {
	task *task.Task
	pods int
}

// NewNode creates a node with capacity GPUs of the given model.
func NewNode(id int, model string, capacity int) *Node {
	n := &Node{ID: id, Model: model, gpus: make([]gpu, capacity), wholeFree: int32(capacity)}
	return n
}

// bump reports a change of the node's occupancy, availability or
// eviction history, once the node's own fields are settled: the change
// counter moves, and in the owning cluster the usage totals file the
// node's usage (none while it is down), the cluster's eviction and
// looseness marks take it in, and the placement index re-files the
// node. The hook lives here, not in sched.State, so callers that
// mutate a node directly (Txn.Rollback, benchmarks) keep the index
// exact.
func (n *Node) bump() {
	n.changes++
	ix := n.owner
	if ix == nil {
		return
	}
	c := ix.cl
	c.evictions = max(c.evictions, len(n.evictions))
	c.loose = c.loose || n.IdleGPUs() < float64(n.wholeFree)-0.5
	var hp, spot float64
	if !n.down {
		hp, spot = n.hpUsed, n.spotUsed
	}
	p := int(n.ord)
	c.used.file(p, hp+spot)
	c.hp.file(p, hp)
	c.spot.file(p, spot)
	ix.reindex(n)
}

// podIndex returns the position of taskID in the sorted pod table,
// or the insertion point with found == false.
func (n *Node) podIndex(taskID int) (int, bool) {
	lo, hi := 0, len(n.pods)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.pods[mid].task.ID < taskID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.pods) && n.pods[lo].task.ID == taskID
}

// Changes counts the changes to the node's occupancy, availability and
// eviction history, modulo 2³²: a node whose count reads the same as
// before has not changed since, so whatever was derived from it then
// still holds.
func (n *Node) Changes() uint32 { return n.changes }

// Capacity returns the number of physical GPUs.
func (n *Node) Capacity() int { return len(n.gpus) }

// Down reports whether the node is failed (out of the cluster).
func (n *Node) Down() bool { return n.down }

// Cordoned reports whether the node refuses new placements while
// keeping its running pods.
func (n *Node) Cordoned() bool { return n.cordoned }

// Schedulable reports whether the node may host new pods.
func (n *Node) Schedulable() bool { return !n.down && !n.cordoned }

// SetDown marks the node failed or restores it. Callers must release
// the node's tasks before failing it; restoring also clears a cordon.
func (n *Node) SetDown(down bool) {
	if n.down != down && n.owner != nil {
		if down {
			n.owner.cl.upCapacity -= len(n.gpus)
		} else {
			n.owner.cl.upCapacity += len(n.gpus)
		}
	}
	n.down = down
	if !down {
		n.cordoned = false
	}
	n.bump()
}

// SetCordoned cordons or uncordons the node.
func (n *Node) SetCordoned(c bool) {
	n.cordoned = c
	n.bump()
}

// IdleGPUs returns the total unallocated GPU capacity, counting
// fractional remainders.
func (n *Node) IdleGPUs() float64 {
	return float64(len(n.gpus)) - n.hpUsed - n.spotUsed
}

// WholeFreeGPUs counts completely idle cards, the unit that whole-card
// requests (g ≥ 1) consume.
func (n *Node) WholeFreeGPUs() int {
	if !n.Schedulable() {
		return 0
	}
	return int(n.wholeFree)
}

// WholeFreeGPUsExcluding counts the cards that would be completely
// free if the given task IDs were evicted: currently idle cards plus
// cards whose entire usage belongs to the victim set. Preemptive
// scheduling uses it to test placement feasibility before committing
// to evictions.
func (n *Node) WholeFreeGPUsExcluding(victims map[int]bool) int {
	if !n.Schedulable() {
		return 0
	}
	c := 0
	for i := range n.gpus {
		g := &n.gpus[i]
		if g.used == 0 {
			c++
			continue
		}
		if len(g.shares) == 0 {
			continue
		}
		all := true
		for _, sh := range g.shares {
			if !victims[sh.taskID] {
				all = false
				break
			}
		}
		if all {
			c++
		}
	}
	return c
}

// WholeFreeGPUsWithout is WholeFreeGPUsExcluding over a short victim
// list instead of a set: victim sets on one node hold a handful of
// tasks, so a linear membership test beats building a map per plan.
func (n *Node) WholeFreeGPUsWithout(victims []*task.Task) int {
	if !n.Schedulable() {
		return 0
	}
	c := int(n.wholeFree)
	for i := range n.gpus {
		g := &n.gpus[i]
		if g.used == 0 {
			continue
		}
		all := true
		for _, sh := range g.shares {
			if !hasTask(victims, sh.taskID) {
				all = false
				break
			}
		}
		if all {
			c++
		}
	}
	return c
}

func hasTask(ts []*task.Task, id int) bool {
	for _, t := range ts {
		if t.ID == id {
			return true
		}
	}
	return false
}

// ReclaimableGPUs counts the cards that would be completely free if
// every spot task on the node were evicted: idle cards plus cards held
// only by spot tenants. It is the O(1) upper bound preemption planning
// tests before building any victim set.
func (n *Node) ReclaimableGPUs() int {
	if !n.Schedulable() {
		return 0
	}
	return int(n.wholeFree + n.spotCards)
}

// HPGPUs returns GPU capacity currently held by HP tasks.
func (n *Node) HPGPUs() float64 { return n.hpUsed }

// SpotGPUs returns GPU capacity currently held by spot tasks.
func (n *Node) SpotGPUs() float64 { return n.spotUsed }

// UsedGPUs returns total allocated capacity.
func (n *Node) UsedGPUs() float64 { return n.hpUsed + n.spotUsed }

// CanFitPod reports whether one pod of tk could be placed without
// preemption.
func (n *Node) CanFitPod(tk *task.Task) bool {
	if !n.Schedulable() {
		return false
	}
	if tk.GPUModel != "" && tk.GPUModel != n.Model {
		return false
	}
	g := tk.GPUsPerPod
	if g < 1 {
		// A fractional pod fits on a fully idle card or shares a
		// card already fractionally used by the same class.
		if n.wholeFree > 0 {
			return true
		}
		for i := range n.gpus {
			if n.gpus[i].used+g <= 1+1e-9 && n.gpus[i].spot == (tk.Type == task.Spot) && n.gpus[i].used < 1 {
				return true
			}
		}
		return false
	}
	return int(n.wholeFree) >= int(g)
}

// PlacePod allocates the GPUs for one pod of tk. It returns
// ErrInsufficient when the pod does not fit.
func (n *Node) PlacePod(tk *task.Task) error {
	if !n.Schedulable() {
		return fmt.Errorf("%w: node %d unschedulable", ErrInsufficient, n.ID)
	}
	if tk.GPUModel != "" && tk.GPUModel != n.Model {
		return fmt.Errorf("%w: model %s != %s", ErrInsufficient, n.Model, tk.GPUModel)
	}
	isSpot := tk.Type == task.Spot
	g := tk.GPUsPerPod
	if g < 1 {
		idx := -1
		bestUsed := -1.0
		for i := range n.gpus {
			u := n.gpus[i].used
			if u == 0 || (u+g <= 1+1e-9 && n.gpus[i].spot == isSpot) {
				// Prefer the most-used card that still fits
				// (bin-packs fractions together).
				if u > bestUsed {
					bestUsed = u
					idx = i
				}
			}
		}
		if idx < 0 {
			return ErrInsufficient
		}
		n.addShare(idx, tk.ID, g, isSpot)
	} else {
		need := int(g)
		if int(n.wholeFree) < need {
			return ErrInsufficient
		}
		placed := 0
		for i := range n.gpus {
			if placed == need {
				break
			}
			if n.gpus[i].used == 0 {
				n.addShare(i, tk.ID, 1, isSpot)
				placed++
			}
		}
	}
	if i, ok := n.podIndex(tk.ID); ok {
		n.pods[i].pods++
	} else {
		n.pods = append(n.pods, podAlloc{})
		copy(n.pods[i+1:], n.pods[i:])
		n.pods[i] = podAlloc{task: tk, pods: 1}
	}
	if isSpot {
		n.spotUsed += g
	} else {
		n.hpUsed += g
	}
	n.bump()
	return nil
}

func (n *Node) addShare(i, taskID int, frac float64, spot bool) {
	g := &n.gpus[i]
	if g.used == 0 {
		n.wholeFree--
		if spot {
			n.spotCards++
		}
	}
	if j, _ := g.shareOf(taskID); j >= 0 {
		g.shares[j].frac += frac
	} else {
		g.shares = append(g.shares, share{taskID: taskID, frac: frac})
	}
	g.used += frac
	if g.used > 1 {
		g.used = 1
	}
	g.spot = spot
}

// ReleaseTask frees all pods of the given task on this node. It
// reports whether the task held any GPUs here.
func (n *Node) ReleaseTask(tk *task.Task) bool {
	pi, ok := n.podIndex(tk.ID)
	if !ok {
		return false
	}
	for i := range n.gpus {
		g := &n.gpus[i]
		if j, frac := g.shareOf(tk.ID); j >= 0 {
			g.used -= frac
			if g.used < 1e-12 {
				g.used = 0
				n.wholeFree++
				if g.spot {
					n.spotCards--
				}
			}
			// Order within shares carries no meaning, so swap-remove.
			last := len(g.shares) - 1
			g.shares[j] = g.shares[last]
			g.shares = g.shares[:last]
		}
	}
	total := float64(float64(n.pods[pi].pods) * tk.GPUsPerPod) // rounded, so never fused below
	if tk.Type == task.Spot {
		n.spotUsed -= total
		if n.spotUsed < 1e-12 {
			n.spotUsed = 0
		}
	} else {
		n.hpUsed -= total
		if n.hpUsed < 1e-12 {
			n.hpUsed = 0
		}
	}
	copy(n.pods[pi:], n.pods[pi+1:])
	n.pods = n.pods[:len(n.pods)-1]
	n.bump()
	return true
}

// PodsOf returns the number of pods of task id on this node.
func (n *Node) PodsOf(id int) int {
	if i, ok := n.podIndex(id); ok {
		return n.pods[i].pods
	}
	return 0
}

// SpotTasks returns the spot tasks currently running on this node,
// sorted by task ID for determinism.
func (n *Node) SpotTasks() []*task.Task { return n.AppendSpotTasks(nil) }

// AppendSpotTasks appends the node's spot tasks to dst in task-ID
// order, so per-node scans can reuse one buffer.
func (n *Node) AppendSpotTasks(dst []*task.Task) []*task.Task {
	for i := range n.pods {
		if n.pods[i].task.Type == task.Spot {
			dst = append(dst, n.pods[i].task)
		}
	}
	return dst
}

// AppendSpotHolds appends the node's spot tasks to tenants in task-ID
// order and, to cards, the cards each holds alone. A whole-card pod
// (GPUsPerPod ≥ 1) takes PodCards idle cards and is their only tenant,
// so evicting a set of whole-card tenants frees WholeFreeGPUs plus
// their cards. A fractional tenant may share its cards, so its count is
// 0 and whole, which reports that no spot tenant is fractional, is
// false: what evicting it frees takes a card walk
// (WholeFreeGPUsWithout).
func (n *Node) AppendSpotHolds(tenants []*task.Task, cards []int) (_ []*task.Task, _ []int, whole bool) {
	whole = true
	for i := range n.pods {
		tk := n.pods[i].task
		if tk.Type != task.Spot {
			continue
		}
		c := 0
		if tk.GPUsPerPod >= 1 {
			c = n.pods[i].pods * tk.PodCards()
		} else {
			whole = false
		}
		tenants, cards = append(tenants, tk), append(cards, c)
	}
	return tenants, cards, whole
}

// Tasks returns all tasks on this node sorted by ID.
func (n *Node) Tasks() []*task.Task {
	out := make([]*task.Task, len(n.pods))
	for i := range n.pods {
		out[i] = n.pods[i].task
	}
	return out
}

// evictionRetention is how far back a node remembers its evictions:
// twice the production long window. Every history horizon a scheduler
// queries (pts's long window) must fit inside it.
const evictionRetention = 2 * 24 * simclock.Hour

// RecordEviction notes a spot eviction on this node at time t. The
// history stays time-sorted even if callers report out of order.
func (n *Node) RecordEviction(t simclock.Time) {
	if k := len(n.evictions); k > 0 && t < n.evictions[k-1] {
		i := sort.Search(k, func(i int) bool { return n.evictions[i] > t })
		n.evictions = append(n.evictions, 0)
		copy(n.evictions[i+1:], n.evictions[i:])
		n.evictions[i] = t
	} else {
		n.evictions = append(n.evictions, t)
	}
	// Trim entries older than the retention to bound memory. The
	// newest always survives (it is no older than t), so a node that
	// has recorded an eviction never reads as pristine again.
	cutoff := t.Add(-evictionRetention)
	trim := 0
	for trim < len(n.evictions) && n.evictions[trim] < cutoff {
		trim++
	}
	if trim > 0 {
		n.evictions = append(n.evictions[:0], n.evictions[trim:]...)
	}
	n.bump()
}

// evictionsSince counts spot evictions on this node in (since, now].
func (n *Node) evictionsSince(since simclock.Time) int {
	i := sort.Search(len(n.evictions), func(i int) bool { return n.evictions[i] > since })
	return len(n.evictions) - i
}

// WeightedEvictionRate implements Eq. (15):
//
//	ē = γ·e_short + (1−γ)·e_long/T_long
//
// where e_short and e_long count eviction events in the past short
// and long windows and T_long is the long window length in hours; with
// the newest eviction outside both windows, both are 0 unsearched.
func (n *Node) WeightedEvictionRate(now simclock.Time, gamma float64, short, long simclock.Duration) float64 {
	if k := len(n.evictions); k == 0 || n.evictions[k-1] <= now.Add(-max(short, long)) {
		return evictionRate(0, 0, gamma, long)
	}
	return evictionRate(n.evictionsSince(now.Add(-short)), n.evictionsSince(now.Add(-long)), gamma, long)
}

// evictionRate is Eq. (15) over the window counts. The conversion
// rounds γ·e_short, so no platform fuses it into the sum.
func evictionRate(eShort, eLong int, gamma float64, long simclock.Duration) float64 {
	return float64(gamma*float64(eShort)) + (1-gamma)*float64(eLong)/long.Hours()
}

// MaxEvictionRate bounds every node's WeightedEvictionRate for γ in
// [0, 1] and long > 0: Eq. (15) at the longest history any node held.
func (c *Cluster) MaxEvictionRate(gamma float64, long simclock.Duration) float64 {
	return evictionRate(c.evictions, c.evictions, gamma, long)
}

// Fragmentation measures how much idle capacity is stranded for
// power-of-two whole-card requests: the idle whole cards minus the
// largest request size in {8,4,2,1} combinations that could be
// packed. A node with 0 or a full multiple of usable sizes scores 0.
func (n *Node) Fragmentation() float64 {
	idle := n.WholeFreeGPUs()
	// Distance-to-alignment: idle cards that do not complete a group
	// of 8 are worth less.
	frag := 0.0
	if idle > 0 && idle < 8 {
		// Stranded fraction grows as idle drifts away from any
		// power of two.
		best := 1
		for _, s := range []int{8, 4, 2, 1} {
			if s <= idle {
				best = s
				break
			}
		}
		frag = float64(idle - best)
	}
	return frag
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("node %d (%s, %d GPUs, %.1f hp + %.1f spot used)", n.ID, n.Model, len(n.gpus), n.hpUsed, n.spotUsed)
}
