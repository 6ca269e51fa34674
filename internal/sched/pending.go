package sched

import "github.com/sjtucitlab/gfs/internal/task"

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
	// cur is the bucket's cursor in the walk in progress (a scheduling
	// pass or an ordered read): entries before it have been passed.
	cur int
}

// head returns the entry under the cursor.
func (b *shapeBucket) head() pendEntry { return b.entries[b.cur] }

// pendingQueue is the scheduling queue, ordered by (Less, seq) and
// stored as one sorted bucket per task shape. A scheduling pass is a
// k-way selection over bucket heads, so a shape that cannot be placed
// parks its whole bucket in one step and the pass costs what the
// distinct shapes and the starts cost, not what the queue length
// costs. The walk lists are reused, so a pass allocates nothing.
type pendingQueue struct {
	sched   Scheduler
	byShape map[taskShape]*shapeBucket
	buckets []*shapeBucket // in order of first appearance
	n       int            // queued tasks
	seq     uint64         // next entry sequence number

	// Walk state: live buckets still have entries ahead of their
	// cursor; parked buckets failed at their cursor and sit out until
	// the next start.
	live, parked []*shapeBucket
	parks        uint64 // buckets parked so far; tests gate on it
}

// before reports whether a precedes b in queue order.
func (q *pendingQueue) before(a, b pendEntry) bool {
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
		b = &shapeBucket{}
		q.byShape[shape] = b
		q.buckets = append(q.buckets, b)
	}
	x := pendEntry{tk: tk, seq: q.seq}
	i := q.after(b, 0, x)
	b.entries = append(b.entries, pendEntry{})
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = x
	q.seq++
	q.n++
	if i < b.cur {
		b.cur++ // keep a walk in progress on the entry it was on
	}
}

// begin starts a walk from the head of every non-empty bucket.
func (q *pendingQueue) begin() {
	q.live, q.parked = q.live[:0], q.parked[:0]
	for _, b := range q.buckets {
		if len(b.entries) > 0 {
			b.cur = 0
			q.live = append(q.live, b)
		}
	}
}

// min returns the index in live of the bucket whose head is first in
// queue order, or -1 when the walk is over.
func (q *pendingQueue) min() int {
	best := -1
	for i, b := range q.live {
		if best < 0 || q.before(b.head(), q.live[best].head()) {
			best = i
		}
	}
	return best
}

// drop removes live[i] from the walk (order within live is free: min
// is a selection under a total order).
func (q *pendingQueue) drop(i int) {
	last := len(q.live) - 1
	q.live[i] = q.live[last]
	q.live = q.live[:last]
}

// skip passes over live[i]'s head, leaving it queued.
func (q *pendingQueue) skip(i int) {
	b := q.live[i]
	if b.cur++; b.cur == len(b.entries) {
		q.drop(i)
	}
}

// park sets live[i] aside until the next resume: its head cannot be
// placed, so neither can the same-shape entries behind it.
func (q *pendingQueue) park(i int) {
	q.parked = append(q.parked, q.live[i])
	q.parks++
	q.drop(i)
}

// remove dequeues live[i]'s head and returns it.
func (q *pendingQueue) remove(i int) pendEntry {
	b := q.live[i]
	x := b.head()
	last := len(b.entries) - 1
	copy(b.entries[b.cur:], b.entries[b.cur+1:])
	b.entries[last] = pendEntry{}
	b.entries = b.entries[:last]
	q.n--
	if b.cur == last {
		q.drop(i)
	}
	return x
}

// resume returns the parked buckets to the walk after x, the entry
// just started, each advanced past it: the state changed, so parked
// shapes are worth retrying, but only behind the started task, as a
// front-to-back pass over one flat queue would.
func (q *pendingQueue) resume(x pendEntry) {
	for _, p := range q.parked {
		if p.cur = q.after(p, p.cur, x); p.cur < len(p.entries) {
			q.live = append(q.live, p)
		}
	}
	q.parked = q.parked[:0]
}

// each calls fn for every queued task in queue order.
func (q *pendingQueue) each(fn func(*task.Task)) {
	q.begin()
	for i := q.min(); i >= 0; i = q.min() {
		fn(q.live[i].head().tk)
		q.skip(i)
	}
}
