package sched

import (
	"errors"
	"fmt"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/task"
)

// State couples the cluster with a placement registry mapping each
// running task to the nodes hosting its pods. Schedulers mutate it
// only through transactions so failed multi-pod (gang) placements
// roll back cleanly.
type State struct {
	Cluster *cluster.Cluster
	// locs maps taskID → hosting nodes with pod counts, kept sorted
	// by node ID. The inner slice replaces a pointer-keyed map: node
	// sets per task are tiny, and slices spare the hot placement path
	// the map hashing and give NodesOf its ID order for free.
	locs map[int][]NodePods
	// locsFree recycles released location slices so steady-state
	// placement allocates nothing.
	locsFree [][]NodePods
	// txnFree recycles the transaction record — scheduling is
	// single-threaded per state, so one spare suffices.
	txnFree *Txn
	// dec is the decision every Commit refills and returns.
	dec Decision
}

// NewState wraps a cluster.
func NewState(cl *cluster.Cluster) *State {
	return &State{Cluster: cl, locs: make(map[int][]NodePods)}
}

// NodesOf returns the nodes hosting tk and the pod count on each,
// sorted by node ID. The slice is the caller's to keep: it stays
// valid after the task is released.
func (s *State) NodesOf(tk *task.Task) []NodePods {
	locs := s.locs[tk.ID]
	if len(locs) == 0 {
		return nil
	}
	out := make([]NodePods, len(locs))
	copy(out, locs)
	return out
}

// NodePods pairs a node with a pod count.
type NodePods struct {
	Node *cluster.Node
	Pods int
}

// place puts one pod of tk on n and records the location.
func (s *State) place(n *cluster.Node, tk *task.Task) error {
	if err := n.PlacePod(tk); err != nil {
		return err
	}
	// Node sets per task are tiny (gangs rarely span more than a few
	// nodes), so a linear scan for the ID-ordered slot beats binary
	// search with its closure call.
	locs := s.locs[tk.ID]
	i := 0
	for i < len(locs) && locs[i].Node.ID < n.ID {
		i++
	}
	if i < len(locs) && locs[i].Node == n {
		locs[i].Pods++
		return nil
	}
	if locs == nil {
		if k := len(s.locsFree); k > 0 {
			locs = s.locsFree[k-1][:0]
			s.locsFree = s.locsFree[:k-1]
		}
	}
	locs = append(locs, NodePods{})
	copy(locs[i+1:], locs[i:])
	locs[i] = NodePods{Node: n, Pods: 1}
	s.locs[tk.ID] = locs
	return nil
}

// ReleaseAll frees every pod of tk across the cluster.
func (s *State) ReleaseAll(tk *task.Task) {
	locs := s.locs[tk.ID]
	for i := range locs {
		locs[i].Node.ReleaseTask(tk)
	}
	if locs != nil {
		for i := range locs {
			locs[i] = NodePods{}
		}
		s.locsFree = append(s.locsFree, locs[:0])
	}
	delete(s.locs, tk.ID)
}

// KillNode releases every task hosted on n from the whole cluster
// (gang tasks lose all their pods, wherever they are) and returns the
// victims sorted by task ID together with the nodes each occupied
// before release, for per-node eviction accounting. The driver uses
// it for node-failure scenario actions; the node itself is left for
// the caller to mark down.
func (s *State) KillNode(n *cluster.Node) ([]*task.Task, [][]NodePods) {
	victims := n.Tasks()
	locs := make([][]NodePods, len(victims))
	for i, tk := range victims {
		locs[i] = s.NodesOf(tk)
		s.ReleaseAll(tk)
	}
	return victims, locs
}

// Txn is an undoable set of placements and evictions. A scheduler
// builds its decision inside a transaction; Rollback restores the
// exact capacity state, Commit finalizes it.
type Txn struct {
	state   *State
	placed  []placeRec
	evicted []evictRec
	done    bool
}

type placeRec struct {
	node *cluster.Node
	tk   *task.Task
}

type evictRec struct {
	tk   *task.Task
	locs []NodePods
}

// Begin opens a transaction on the state, reusing the pooled record
// left by the last Commit or Rollback when one is free.
func (s *State) Begin() *Txn {
	if t := s.txnFree; t != nil {
		s.txnFree = nil
		t.placed = t.placed[:0]
		t.evicted = t.evicted[:0]
		t.done = false
		return t
	}
	return &Txn{state: s}
}

// release clears the closed transaction's records (dropping the task
// and slice references they pin) and parks it for the next Begin.
func (t *Txn) release() {
	for i := range t.placed {
		t.placed[i] = placeRec{}
	}
	for i := range t.evicted {
		t.evicted[i] = evictRec{}
	}
	if t.state.txnFree == nil {
		t.state.txnFree = t
	}
}

// Place tentatively puts one pod of tk on n.
func (t *Txn) Place(n *cluster.Node, tk *task.Task) error {
	t.mustBeOpen()
	if err := t.state.place(n, tk); err != nil {
		return err
	}
	t.placed = append(t.placed, placeRec{node: n, tk: tk})
	return nil
}

// Evict tentatively removes victim from all its nodes, freeing the
// capacity for subsequent Place calls.
func (t *Txn) Evict(victim *task.Task) {
	t.mustBeOpen()
	locs := t.state.NodesOf(victim)
	if len(locs) == 0 {
		return
	}
	t.state.ReleaseAll(victim)
	t.evicted = append(t.evicted, evictRec{tk: victim, locs: locs})
}

// Rollback undoes all placements and re-places evicted victims.
// Capacity is restored exactly; GPU indices may differ, which is
// immaterial to the simulation.
func (t *Txn) Rollback() {
	t.mustBeOpen()
	t.done = true
	// Release placed tasks; a task's later pods find it released
	// already, and ReleaseAll on a released task is a no-op.
	for _, p := range t.placed {
		t.state.ReleaseAll(p.tk)
	}
	// Restore victims in reverse order.
	for i := len(t.evicted) - 1; i >= 0; i-- {
		e := t.evicted[i]
		for _, np := range e.locs {
			for k := 0; k < np.Pods; k++ {
				if err := t.state.place(np.Node, e.tk); err != nil {
					// Cannot happen: we just freed this capacity.
					panic(fmt.Sprintf("sched: rollback re-place failed: %v", err))
				}
			}
		}
	}
	t.release()
}

// Commit finalizes the transaction and returns the decision: the node
// of each placed pod in placement order, the victims in eviction order.
// The decision belongs to the state, which refills it at the next
// Commit: apply it (or copy what must be kept) before then.
func (t *Txn) Commit() *Decision {
	t.mustBeOpen()
	t.done = true
	dec := &t.state.dec
	clear(dec.Victims)
	clear(dec.VictimLocs)
	dec.PodNodes, dec.Victims, dec.VictimLocs = dec.PodNodes[:0], dec.Victims[:0], dec.VictimLocs[:0]
	for _, p := range t.placed {
		dec.PodNodes = append(dec.PodNodes, p.node)
	}
	for _, e := range t.evicted {
		dec.Victims = append(dec.Victims, e.tk)
		dec.VictimLocs = append(dec.VictimLocs, e.locs)
	}
	t.release()
	return dec
}

// ErrUnschedulable is what Gang returns when some pod has no host.
var ErrUnschedulable = errors.New("sched: no feasible placement")

// Gang is the gang-placement transaction every scheduler runs. For
// each pod of tk in turn, pick names the host and the tenants to evict
// from the cluster first — evicted counts the victims of the pods
// before it — and the pod is placed there. A pod with no host (nil), or
// one that does not fit after all, rolls the whole gang back: the
// cluster is unchanged and the error is ErrUnschedulable.
func (s *State) Gang(tk *task.Task, pick func(evicted int) (*cluster.Node, []*task.Task)) (*Decision, error) {
	txn := s.Begin()
	evicted := 0
	for pod := 0; pod < tk.Pods; pod++ {
		n, victims := pick(evicted)
		for _, v := range victims {
			txn.Evict(v)
		}
		evicted += len(victims)
		if n == nil || txn.Place(n, tk) != nil {
			txn.Rollback()
			return nil, ErrUnschedulable
		}
	}
	return txn.Commit(), nil
}

func (t *Txn) mustBeOpen() {
	if t.done {
		panic("sched: transaction already closed")
	}
}
