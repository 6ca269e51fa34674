package sched

import (
	"slices"

	"github.com/sjtucitlab/gfs/internal/task"
)

// taskShape keys placement-feasibility: two pending tasks with the
// same shape either both fit or both fail against the same cluster
// state.
type taskShape struct {
	typ        task.Type
	pods       int
	gpusPerPod float64
	model      string
}

func shapeOfTask(tk *task.Task) taskShape {
	return taskShape{typ: tk.Type, pods: tk.Pods, gpusPerPod: tk.GPUsPerPod, model: tk.GPUModel}
}

// pendEntry is one queued task. seq is its queue-entry sequence
// number, the tie-break among tasks the scheduler's Less ranks equal:
// whoever entered the queue first goes first, whether it arrived or
// was evicted back.
type pendEntry struct {
	tk  *task.Task
	seq uint64
}

// shapeBucket holds the queued tasks of one shape in queue order.
type shapeBucket struct {
	entries []pendEntry
	// buf is entries' backing array at full length: entries starts
	// past the slots that removes freed at the front, and insert slides
	// it back over them before it grows the array.
	buf []pendEntry
	// cur is the bucket's cursor in the walk in progress (a scheduling
	// pass or an ordered read): entries before it have been passed.
	cur int
	// leaf is the bucket's leaf in the walk's tree, or -1 when the walk
	// began without it.
	leaf int32
}

// head returns the entry under the cursor.
func (b *shapeBucket) head() pendEntry { return b.entries[b.cur] }

// pendingQueue is the scheduling queue, ordered by (Less, seq) and
// stored as one sorted bucket per task shape. A scheduling pass is a
// k-way selection over bucket heads, so a shape that cannot be placed
// parks its whole bucket in one step and the pass costs what the
// distinct shapes and the starts cost, not what the queue length
// costs. The selection is a winner tree over the buckets a walk begins
// with: the pick is its root, and a bucket whose head moves replays its
// one leaf-to-root path, so a pick over L buckets costs ⌈log₂ L⌉
// comparisons, not L − 1. The walk lists are reused, so a pass
// allocates nothing.
type pendingQueue struct {
	sched   Scheduler
	byShape map[taskShape]*shapeBucket
	buckets []*shapeBucket // in order of first appearance
	n       int            // queued tasks
	seq     uint64         // next entry sequence number

	// Walk state. walk holds the buckets that had entries at begin,
	// the tree's leaves. win is the tree: win[len(walk)+j] is j while
	// walk[j] is live — entries ahead of its cursor, not parked — and
	// -1 otherwise, and every inner node win[p] is the first in queue
	// order of its children win[2p] and win[2p+1], so win[1] is the
	// live bucket whose head comes first. parked lists the leaves that
	// failed at their cursor and sit out until the next start.
	walk   []*shapeBucket
	win    []int32
	parked []int32
	parks  uint64 // buckets parked so far; tests gate on it
	cmps   uint64 // calls of before; tests gate on it
}

// before reports whether a precedes b in queue order.
func (q *pendingQueue) before(a, b pendEntry) bool {
	q.cmps++
	if q.sched.Less(a.tk, b.tk) {
		return true
	}
	if q.sched.Less(b.tk, a.tk) {
		return false
	}
	return a.seq < b.seq
}

// after returns the first index at or beyond lo in b whose entry
// follows x in queue order.
func (q *pendingQueue) after(b *shapeBucket, lo int, x pendEntry) int {
	hi := len(b.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.before(x, b.entries[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insert queues tk behind every task Less does not rank after it.
func (q *pendingQueue) insert(tk *task.Task) {
	shape := shapeOfTask(tk)
	b := q.byShape[shape]
	if b == nil {
		b = &shapeBucket{leaf: -1}
		q.byShape[shape] = b
		q.buckets = append(q.buckets, b)
	}
	x := pendEntry{tk: tk, seq: q.seq}
	i := q.after(b, 0, x)
	if n := len(b.entries); n == cap(b.entries) && cap(b.buf) > n {
		copy(b.buf, b.entries)
		clear(b.buf[n:])
		b.entries = b.buf[:n]
	}
	b.entries = append(b.entries, pendEntry{})
	if cap(b.entries) > cap(b.buf) {
		b.buf = b.entries[:cap(b.entries)]
	}
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = x
	q.seq++
	q.n++
	switch {
	case i < b.cur:
		b.cur++ // keep a walk in progress on the entry it was on
	case i == b.cur && b.leaf >= 0 && q.win[len(q.walk)+int(b.leaf)] >= 0:
		q.replay(int(b.leaf)) // a live bucket's head moved
	}
}

// begin starts a walk from the head of every non-empty bucket.
func (q *pendingQueue) begin() {
	q.walk, q.parked = q.walk[:0], q.parked[:0]
	for _, b := range q.buckets {
		b.leaf = -1
		if len(b.entries) > 0 {
			b.cur, b.leaf = 0, int32(len(q.walk))
			q.walk = append(q.walk, b)
		}
	}
	n := len(q.walk)
	q.win = slices.Grow(q.win[:0], 2*n)[:2*n]
	for j := range n {
		q.win[n+j] = int32(j)
	}
	for p := n - 1; p > 0; p-- {
		q.win[p] = q.winner(q.win[2*p], q.win[2*p+1])
	}
}

// winner returns whichever of leaves a and b (-1 for none) has the
// head that comes first.
func (q *pendingQueue) winner(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 || q.before(q.walk[a].head(), q.walk[b].head()) {
		return a
	}
	return b
}

// replay recomputes the inner nodes on leaf j's path to the root.
func (q *pendingQueue) replay(j int) {
	for p := (len(q.walk) + j) >> 1; p > 0; p >>= 1 {
		q.win[p] = q.winner(q.win[2*p], q.win[2*p+1])
	}
}

// min returns the leaf of the live bucket whose head is first in queue
// order, or -1 when the walk is over.
func (q *pendingQueue) min() int {
	if len(q.walk) == 0 {
		return -1
	}
	return int(q.win[1])
}

// drop takes leaf j out of the walk.
func (q *pendingQueue) drop(j int) {
	q.win[len(q.walk)+j] = -1
	q.replay(j)
}

// skip passes over leaf j's head, leaving it queued.
func (q *pendingQueue) skip(j int) {
	b := q.walk[j]
	if b.cur++; b.cur == len(b.entries) {
		q.drop(j)
	} else {
		q.replay(j)
	}
}

// park sets leaf j aside until the next resume: its head cannot be
// placed, so neither can the same-shape entries behind it.
func (q *pendingQueue) park(j int) {
	q.parked = append(q.parked, int32(j))
	q.parks++
	q.drop(j)
}

// remove dequeues leaf j's head and returns it. The gap closes from
// its shorter side: the passed entries move up a slot when they are
// fewer than the entries behind the head.
func (q *pendingQueue) remove(j int) pendEntry {
	b := q.walk[j]
	x := b.head()
	last := len(b.entries) - 1
	if b.cur < last-b.cur {
		copy(b.entries[1:], b.entries[:b.cur])
		b.entries[0] = pendEntry{}
		b.entries = b.entries[1:]
	} else {
		copy(b.entries[b.cur:], b.entries[b.cur+1:])
		b.entries[last] = pendEntry{}
		b.entries = b.entries[:last]
	}
	q.n--
	if b.cur == last {
		q.drop(j)
	} else {
		q.replay(j)
	}
	return x
}

// resume returns the parked buckets to the walk after x, the entry
// just started, each advanced past it: the state changed, so parked
// shapes are worth retrying, but only behind the started task, as a
// front-to-back pass over one flat queue would.
func (q *pendingQueue) resume(x pendEntry) {
	for _, j := range q.parked {
		p := q.walk[j]
		if p.cur = q.after(p, p.cur, x); p.cur < len(p.entries) {
			q.win[len(q.walk)+int(j)] = j
			q.replay(int(j))
		}
	}
	q.parked = q.parked[:0]
}

// each calls fn for every queued task in queue order.
func (q *pendingQueue) each(fn func(*task.Task)) {
	q.begin()
	for j := q.min(); j >= 0; j = q.min() {
		fn(q.walk[j].head().tk)
		q.skip(j)
	}
}
