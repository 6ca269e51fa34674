// Package simclock provides virtual time and a deterministic
// discrete-event queue, a binary heap, for the cluster simulator.
//
// Simulation time is measured in whole seconds from an arbitrary
// epoch (the start of the simulated trace). Events scheduled for the
// same instant are delivered PushFront events first, then in
// insertion order, which makes every simulation run reproducible
// bit-for-bit.
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
// values stored inline in the queue's heap, so scheduling an event
// allocates nothing beyond any boxing of Value itself and the heap's
// occasional growth.
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
// It is a binary min-heap over Event.before. Because the insertion
// sequence is unique, that order is total: the pop sequence is fixed
// by the pushes alone, whatever the heap's internal layout.
type Queue struct {
	seq uint64
	h   []Event
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Push schedules value for delivery at time at.
func (q *Queue) Push(at Time, value any) {
	q.push(at, 1, value)
}

// PushFront schedules value for delivery at time at, ahead of every
// same-instant Push event no matter when either was inserted. The
// simulator uses it for task arrivals, so a task Injected mid-run (a
// federation route or migration) observes the same arrivals-first
// tie-break as a trace walked from the arrival cursor. PushFront events at the same
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
	h := append(q.h, e)
	// Sift up: move parents down until e's slot is found.
	i := len(h) - 1
	for p := (i - 1) / 2; i > 0 && e.before(&h[p]); p = (i - 1) / 2 {
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.h = h
}

// Peek returns the next event without removing it. The second result
// is false if the queue is empty.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the next event. The second result is false
// if the queue is empty.
func (q *Queue) Pop() (Event, bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Event{}, false
	}
	h := q.h
	top, last := h[0], h[n]
	h[n] = Event{} // release the Value reference
	h = h[:n]
	q.h = h
	if n == 0 {
		return top, true
	}
	// Sift down: move the smaller child up until last's slot is found.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top, true
}
