// Package simclock provides virtual time and a deterministic
// discrete-event queue for the cluster simulator.
//
// Simulation time is measured in whole seconds from an arbitrary
// epoch (the start of the simulated trace). Events scheduled for the
// same instant are delivered in insertion order, which makes every
// simulation run reproducible bit-for-bit.
package simclock

// Time is a point in simulated time, in seconds since the simulation
// epoch.
type Time int64

// Duration is a span of simulated time in seconds.
type Duration int64

// Common durations.
const (
	Second Duration = 1
	Minute Duration = 60 * Second
	Hour   Duration = 60 * Minute
	Day    Duration = 24 * Hour
	Week   Duration = 7 * Day
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Hours converts d to fractional hours.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

// Seconds converts d to fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// HourOfDay returns the hour-of-day [0,24) at t, assuming the epoch
// is midnight on the first simulated day.
func (t Time) HourOfDay() int { return int((t / Time(Hour)) % 24) }

// DayIndex returns the zero-based day number at t.
func (t Time) DayIndex() int { return int(t / Time(Day)) }

// Weekday returns the zero-based weekday at t (0 = Monday), assuming
// the epoch falls on a Monday.
func (t Time) Weekday() int { return t.DayIndex() % 7 }

// HourIndex returns the zero-based hour number since the epoch.
func (t Time) HourIndex() int { return int(t / Time(Hour)) }

// Event is a scheduled payload in the event queue. Events are plain
// values: the queue stores them inline in its buckets, so scheduling
// an event allocates nothing beyond any boxing of Value itself.
type Event struct {
	At    Time
	Value any

	class uint8
	seq   uint64
}

// before reports the queue's total delivery order: (At, class,
// insertion sequence). PushFront events (class 0) sort ahead of Push
// events (class 1) at the same instant regardless of insertion order.
func (e *Event) before(f *Event) bool {
	if e.At != f.At {
		return e.At < f.At
	}
	if e.class != f.class {
		return e.class < f.class
	}
	return e.seq < f.seq
}

// Queue delivers events ordered by (At, class, insertion sequence).
// The zero value is an empty queue ready to use.
//
// Internally it is a calendar queue: a ring of fixed-width time
// buckets covering [base, horizon), each kept sorted, plus an
// unsorted far list for events beyond the horizon. When the ring
// drains, the far list is redistributed over a fresh ring sized to
// the remaining events (a rebase), so Push and Pop run in amortized
// near-constant time regardless of how many events are pending —
// unlike a binary heap's O(log n) — while preserving the exact
// delivery order a heap over (At, class, seq) would produce.
type Queue struct {
	seq uint64
	n   int // live events across buckets and far

	// The ring: buckets[i] covers [base+i*width, base+(i+1)*width),
	// sorted by delivery order; off[i] is the pop cursor into it.
	// cur is the bucket holding the queue's head; earlier buckets
	// are drained. Events landing in a drained window are clamped
	// into bucket cur, which keeps delivery order exact because
	// every event in a later bucket belongs to a later window.
	base    Time
	width   Duration
	horizon Time
	cur     int
	buckets [][]Event
	off     []int

	// far holds events at or beyond the horizon, unsorted, awaiting
	// the next rebase.
	far []Event
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.n }

// Push schedules value for delivery at time at.
func (q *Queue) Push(at Time, value any) {
	q.push(at, 1, value)
}

// PushFront schedules value for delivery at time at, ahead of every
// same-instant Push event no matter when either was inserted. The
// simulator uses it for task arrivals, so a trace streamed in mid-run
// (Inject, replay) observes the same arrivals-first tie-break as a
// trace preloaded at construction. PushFront events at the same
// instant keep insertion order among themselves.
func (q *Queue) PushFront(at Time, value any) {
	q.push(at, 0, value)
}

func (q *Queue) push(at Time, class uint8, value any) {
	q.pushSeq(at, class, value, q.seq)
	q.seq++
}

// pushSeq schedules an event with an externally assigned insertion
// sequence. It is split from push only for ShardedQueue (sharded.go),
// which stamps one sequence across its member queues; when that file
// goes, this folds back into push.
func (q *Queue) pushSeq(at Time, class uint8, value any, seq uint64) {
	e := Event{At: at, Value: value, class: class, seq: seq}
	q.n++
	if q.cur >= len(q.buckets) || at >= q.horizon {
		// No ring yet, or the ring is fully drained: hold the event
		// in the far list for the next rebase.
		q.far = append(q.far, e)
		return
	}
	idx := q.cur
	if at > q.base {
		if i := int((at - q.base) / Time(q.width)); i > idx {
			idx = i
		}
	}
	q.insert(idx, e)
}

// insert places e into bucket idx, keeping the live tail sorted.
func (q *Queue) insert(idx int, e Event) {
	b := q.buckets[idx]
	// Binary search over the live tail for the first event after e.
	lo, hi := q.off[idx], len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(&e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, Event{})
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	q.buckets[idx] = b
}

// head advances cur to the bucket holding the next event, rebasing
// the ring from the far list as needed. It reports false when the
// queue is empty.
func (q *Queue) head() bool {
	if q.n == 0 {
		return false
	}
	for {
		for q.cur < len(q.buckets) {
			if q.off[q.cur] < len(q.buckets[q.cur]) {
				return true
			}
			// Drained bucket: reset it for reuse and move on.
			q.buckets[q.cur] = q.buckets[q.cur][:0]
			q.off[q.cur] = 0
			q.cur++
		}
		q.rebase()
	}
}

// Ring sizing bounds: at least minBuckets so tiny queues don't
// degenerate into one list, at most maxBuckets so a huge preloaded
// trace doesn't allocate a bucket per event.
const (
	minBuckets = 16
	maxBuckets = 1 << 17
)

// rebase redistributes the far list over a fresh ring sized to it:
// one bucket per ~8 events (within bounds), bucket width covering the
// far span. Called only with the ring drained and far non-empty; the
// ring arrays — and each bucket's backing storage, reset as it
// drained — are reused whenever capacity allows.
func (q *Queue) rebase() {
	evs := q.far
	minAt, maxAt := evs[0].At, evs[0].At
	for i := 1; i < len(evs); i++ {
		if evs[i].At < minAt {
			minAt = evs[i].At
		}
		if evs[i].At > maxAt {
			maxAt = evs[i].At
		}
	}
	nb := (len(evs) + 7) / 8
	if nb < minBuckets {
		nb = minBuckets
	}
	if nb > maxBuckets {
		nb = maxBuckets
	}
	span := Duration(maxAt-minAt) + 1
	width := (span + Duration(nb) - 1) / Duration(nb) // ceil: horizon covers maxAt
	q.base = minAt
	q.width = width
	q.horizon = minAt + Time(Duration(nb)*width)
	q.cur = 0
	if nb <= cap(q.buckets) {
		q.buckets = q.buckets[:nb]
		q.off = q.off[:nb]
	} else {
		q.buckets = make([][]Event, nb)
		q.off = make([]int, nb)
	}
	// Steal the far backing array before refilling; events beyond
	// the new horizon (none today, since width is ceiled, but kept
	// for safety against future sizing changes) would re-append.
	q.far = nil
	for _, e := range evs {
		idx := int((e.At - q.base) / Time(q.width))
		if idx >= nb {
			q.far = append(q.far, e)
			continue
		}
		q.insert(idx, e)
	}
}

// Peek returns the next event without removing it. The second result
// is false if the queue is empty.
func (q *Queue) Peek() (Event, bool) {
	if !q.head() {
		return Event{}, false
	}
	return q.buckets[q.cur][q.off[q.cur]], true
}

// Pop removes and returns the next event. The second result is false
// if the queue is empty.
func (q *Queue) Pop() (Event, bool) {
	if !q.head() {
		return Event{}, false
	}
	b := q.buckets[q.cur]
	i := q.off[q.cur]
	e := b[i]
	b[i] = Event{} // release the Value reference
	q.off[q.cur] = i + 1
	q.n--
	return e, true
}
