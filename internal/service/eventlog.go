package service

import (
	"sync"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/jsonenc"
)

// chunkSlots bounds one slab of a session's ring. Slabs are allocated
// as the first event lands in them, so a ring's memory follows the
// events emitted, not its capacity.
const chunkSlots = 256

// rec is one simulator event as a session's ring keeps it: the
// gfs.Event fields its stream record shows, flattened to scalars. It
// holds no pointers, so the ring is a plain copy to append to and
// nothing for the garbage collector to scan. The record's sequence
// number is its position in the log and is not stored.
type rec struct {
	at int64
	// task is the task ID and gpus its total GPUs, both valid when
	// hasTask; node is the node ID of NodeDown/NodeUp.
	task, node int64
	gpus       float64
	// f holds the kind's own floats: waste (TaskEvicted); quota, used,
	// eta (QuotaUpdated); used, capacity (AllocSampled).
	f [3]float64
	// org, member and target index the log's string table; 0 is "".
	org, member, target uint32
	kind                gfs.EventKind
	cause               gfs.EvictCause
	class               uint8 // the task's gfs.TaskType
	hasTask             bool
}

// capture flattens the scalar fields of a simulator event. The string
// fields are interned by the caller.
func capture(e gfs.Event) rec {
	r := rec{at: int64(e.At), kind: e.Kind}
	if t := e.Task; t != nil {
		r.hasTask = true
		r.task = int64(t.ID)
		r.class = uint8(t.Type)
		r.gpus = t.TotalGPUs()
	}
	switch e.Kind {
	case gfs.TaskEvicted:
		r.cause = e.Cause
		r.f[0] = e.Waste
	case gfs.QuotaUpdated:
		r.f = [3]float64{e.Quota, e.Used, e.Eta}
	case gfs.NodeDown, gfs.NodeUp:
		r.node = int64(e.Node.ID)
	case gfs.AllocSampled:
		r.f[0], r.f[1] = e.Used, e.Capacity
	}
	return r
}

// Progress is the live view of a session's simulation, rebuilt from
// its event stream.
type Progress struct {
	// Events is the total events emitted so far; DroppedEvents how
	// many of them have already fallen off the session's ring.
	Events        uint64 `json:"events"`
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
	// SimTimeS is the simulated clock of the latest event.
	SimTimeS int64 `json:"sim_time_s"`
	// Task lifecycle counters.
	TasksArrived  uint64 `json:"tasks_arrived"`
	TasksStarted  uint64 `json:"tasks_started"`
	TasksFinished uint64 `json:"tasks_finished"`
	TasksEvicted  uint64 `json:"tasks_evicted"`
}

// eventLog is a session's bounded event ring: the simulation appends
// (synchronously, from the hot loop — so appends never block) and any
// number of stream handlers read by cursor. When a reader's cursor
// has fallen off the ring it learns how many events it missed and
// resumes from the oldest retained one — backpressure costs a slow
// client fidelity, never the simulation throughput. Readers with no
// events available receive a notification channel that is closed on
// the next append.
type eventLog struct {
	mu sync.Mutex
	// notify is closed and replaced on append while armed (a reader
	// is waiting).
	notify chan struct{}
	armed  bool
	// chunks hold the ring: event seq lives at slot seq % capacity,
	// which is chunks[slot/chunkSlots][slot%chunkSlots]. Slots fill in
	// order, so the chunk list grows by appending until the first
	// wrap; the oldest retained event has sequence total-min(total,
	// capacity).
	chunks   [][]rec
	capacity int
	total    uint64
	closed   bool
	prog     Progress
	// strs is the string table rec indexes: strs[0] is "", every
	// other entry a distinct org, member or target in its quoted JSON
	// form, escaped once when first seen. It only grows, so a reader
	// may keep the slice it saw under the mutex. ids maps the raw
	// string to its index.
	strs []string
	ids  map[string]uint32
	// firstAt is when the first event landed (wall clock), for the
	// time-to-first-event metric.
	firstAt  time.Time
	hasFirst bool
	clock    Clock
}

// newEventLog builds a log retaining at most capacity events. It
// allocates no ring storage until events arrive.
func newEventLog(capacity int, clock Clock) *eventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &eventLog{notify: make(chan struct{}), capacity: capacity, strs: []string{""}, clock: clock}
}

// intern returns s's index in the string table, adding it on first
// sight. Call with l.mu held.
func (l *eventLog) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := l.ids[s]; ok {
		return id
	}
	if l.ids == nil {
		l.ids = make(map[string]uint32)
	}
	id := uint32(len(l.strs))
	l.strs = append(l.strs, string(jsonenc.AppendString(nil, s, true)))
	l.ids[s] = id
	return id
}

// append records one simulator event, reporting whether it was the
// session's first.
func (l *eventLog) append(e gfs.Event) (first bool) {
	r := capture(e)
	l.mu.Lock()
	if e.Task != nil {
		r.org = l.intern(e.Task.Org)
	}
	r.member = l.intern(e.Member)
	r.target = l.intern(e.Target)
	slot := int(l.total % uint64(l.capacity))
	c := slot / chunkSlots
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]rec, min(chunkSlots, l.capacity-c*chunkSlots)))
	}
	l.chunks[c][slot%chunkSlots] = r
	l.total++
	l.prog.Events = l.total
	l.prog.DroppedEvents = l.total - l.retained()
	l.prog.SimTimeS = r.at
	switch e.Kind {
	case gfs.TaskArrived:
		l.prog.TasksArrived++
	case gfs.TaskStarted:
		l.prog.TasksStarted++
	case gfs.TaskFinished:
		l.prog.TasksFinished++
	case gfs.TaskEvicted:
		l.prog.TasksEvicted++
	}
	first = !l.hasFirst
	if first {
		l.hasFirst = true
		l.firstAt = l.clock.Now()
	}
	if l.armed {
		close(l.notify)
		l.notify = make(chan struct{})
		l.armed = false
	}
	l.mu.Unlock()
	return first
}

// retained is how many events the ring holds. Call with l.mu held.
func (l *eventLog) retained() uint64 { return min(l.total, uint64(l.capacity)) }

// batch is one read from an eventLog.
type batch struct {
	// recs are the events read, in order; recs[0] has sequence first.
	recs  []rec
	first uint64
	// gap counts the events the cursor missed: it resumed at first,
	// the oldest retained event.
	gap uint64
	// strs is the string table recs index.
	strs   []string
	closed bool
	// wait, set when recs is empty and the log is open, is closed on
	// the next append or on close.
	wait <-chan struct{}
}

// next is the cursor for the read after b.
func (b batch) next() uint64 { return b.first + uint64(len(b.recs)) }

// read copies up to len(buf) events starting at cursor into buf. A
// cursor past the end reads from the end; one that fell off the ring
// resumes at the oldest retained event and reports the gap. With no
// events available the batch carries a wait channel, unless the log
// is closed: then no more events will come.
func (l *eventLog) read(cursor uint64, buf []rec) batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := batch{strs: l.strs, closed: l.closed}
	base := l.total - l.retained()
	cursor = min(cursor, l.total)
	if cursor < base {
		b.gap = base - cursor
		cursor = base
	}
	b.first = cursor
	n := int(min(l.total-cursor, uint64(len(buf))))
	if n == 0 {
		if !l.closed {
			l.armed = true
			b.wait = l.notify
		}
		return b
	}
	b.recs = buf[:n]
	slot := int(cursor % uint64(l.capacity))
	for done := 0; done < n; {
		k := copy(b.recs[done:], l.chunks[slot/chunkSlots][slot%chunkSlots:])
		done += k
		if slot += k; slot == l.capacity {
			slot = 0
		}
	}
	return b
}

// close marks the stream complete (the session reached a terminal
// state) and wakes any waiting readers.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	if l.armed {
		close(l.notify)
		l.notify = make(chan struct{})
		l.armed = false
	}
	l.mu.Unlock()
}

// progress snapshots the live counters.
func (l *eventLog) progress() Progress {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.prog
}

// firstEventAt returns when the first event landed (zero time if none
// yet).
func (l *eventLog) firstEventAt() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasFirst {
		return time.Time{}
	}
	return l.firstAt
}
