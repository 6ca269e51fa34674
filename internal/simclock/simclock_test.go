package simclock

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"weak"
)

func TestTimeArithmetic(t *testing.T) {
	var epoch Time
	noon := epoch.Add(12 * Hour)
	if noon.HourOfDay() != 12 {
		t.Fatalf("HourOfDay = %d, want 12", noon.HourOfDay())
	}
	if got := noon.Sub(epoch); got != 12*Hour {
		t.Fatalf("Sub = %d, want %d", got, 12*Hour)
	}
	if (3 * Hour).Hours() != 3 {
		t.Fatalf("Hours = %v, want 3", (3 * Hour).Hours())
	}
}

func TestWeekdayAssumesMondayEpoch(t *testing.T) {
	var epoch Time
	if epoch.Weekday() != 0 {
		t.Fatalf("epoch weekday = %d, want 0 (Monday)", epoch.Weekday())
	}
	sat := epoch.Add(5 * Day)
	if sat.Weekday() != 5 {
		t.Fatalf("day5 weekday = %d, want 5", sat.Weekday())
	}
	nextMon := epoch.Add(7 * Day)
	if nextMon.Weekday() != 0 {
		t.Fatalf("day7 weekday = %d, want 0", nextMon.Weekday())
	}
}

func TestHourIndex(t *testing.T) {
	tm := Time(0).Add(25*Hour + 30*Minute)
	if tm.HourIndex() != 25 {
		t.Fatalf("HourIndex = %d, want 25", tm.HourIndex())
	}
	if tm.DayIndex() != 1 {
		t.Fatalf("DayIndex = %d, want 1", tm.DayIndex())
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	var got []string
	for q.Len() > 0 {
		e, _ := q.Pop()
		got = append(got, e.Value.(string))
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestQueueTieBreakByInsertion(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		e, ok := q.Pop()
		if !ok || e.Value.(int) != i {
			t.Fatalf("tie order: got %v at pop %d", e.Value, i)
		}
	}
}

func TestQueuePushFrontBeatsPush(t *testing.T) {
	var q Queue
	q.Push(5, "push-early")
	q.PushFront(5, "front-late")
	q.Push(5, "push-later")
	q.PushFront(5, "front-later")
	want := []string{"front-late", "front-later", "push-early", "push-later"}
	for i, w := range want {
		e, ok := q.Pop()
		if !ok || e.Value.(string) != w {
			t.Fatalf("pop %d = %v, want %q", i, e.Value, w)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue should report empty")
	}
	q.Push(7, "x")
	if e, ok := q.Peek(); !ok || e.At != 7 {
		t.Fatalf("Peek.At = %v, want 7", e.At)
	}
	if q.Len() != 1 {
		t.Fatal("Peek must not remove the event")
	}
}

func TestQueuePopEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue should report empty")
	}
}

// TestQueueReuseAfterDrain checks that a queue that empties
// completely accepts and orders new events.
func TestQueueReuseAfterDrain(t *testing.T) {
	var q Queue
	for round := 0; round < 5; round++ {
		base := Time(round * 1000)
		q.Push(base+20, "b")
		q.PushFront(base+20, "a")
		q.Push(base+700, "c")
		want := []string{"a", "b", "c"}
		for i, w := range want {
			e, ok := q.Pop()
			if !ok || e.Value.(string) != w {
				t.Fatalf("round %d pop %d = %v, want %q", round, i, e.Value, w)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: queue not drained", round)
		}
	}
}

// TestQueuePopReleasesValue checks that Pop zeroes the slot it
// vacates. Without that, the backing array keeps a stale copy of a
// moved event past the heap's end, pinning its value after it is
// popped, here while the queue still holds other events.
func TestQueuePopReleasesValue(t *testing.T) {
	var q Queue
	v := new([64]byte)
	wp := weak.Make(v)
	q.Push(1, "first")
	q.Push(2, v)
	v = nil
	for _, at := range []Time{1, 2} {
		if e, ok := q.Pop(); !ok || e.At != at {
			t.Fatalf("Pop = t=%d, %v; want t=%d", e.At, ok, at)
		}
	}
	q.Push(3, "keep")
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("popped value still reachable from the queue")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// Property: the queue delivers events in nondecreasing time order no
// matter the insertion order.
func TestQueueSortedProperty(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		for _, v := range times {
			q.Push(Time(v), nil)
		}
		prev := Time(-1 << 62)
		for q.Len() > 0 {
			e, _ := q.Pop()
			if e.At < prev {
				return false
			}
			prev = e.At
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the queue output is a permutation matching sort order of
// the input.
func TestQueueMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(200)
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(rng.Intn(50))
		}
		var q Queue
		for _, v := range in {
			q.Push(Time(v), v)
		}
		sorted := append([]int64(nil), in...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := 0; q.Len() > 0; i++ {
			e, _ := q.Pop()
			if e.At != Time(sorted[i]) {
				t.Fatalf("trial %d: pos %d got %d want %d", trial, i, e.At, sorted[i])
			}
		}
	}
}

// refQueue is a container/heap implementation, kept here as an
// oracle independent of Queue's hand-written sift: any divergence in
// delivery order between the two is a determinism bug.
type refQueue struct {
	h   refHeap
	seq uint64
}

type refEvent struct {
	at    Time
	value any
	class uint8
	seq   uint64
}

func (q *refQueue) push(at Time, class uint8, value any) {
	heap.Push(&q.h, refEvent{at: at, value: value, class: class, seq: q.seq})
	q.seq++
}

func (q *refQueue) pop() (refEvent, bool) {
	if len(q.h) == 0 {
		return refEvent{}, false
	}
	return heap.Pop(&q.h).(refEvent), true
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestQueueEquivalentToHeap drives random interleaved operation
// sequences through Queue and the reference heap and demands
// identical delivery. Pushes follow the simulator's contract (never
// below the last popped time); the time distribution mixes dense
// near-term events, same-instant ties, and far-future spikes, so the
// heap holds long runs of equal keys beside widely spread ones.
func TestQueueEquivalentToHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref refQueue
		now := Time(0)
		id := 0
		steps := 2000
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(10); {
			case op < 6 || q.Len() == 0: // push
				var at Time
				switch rng.Intn(10) {
				case 0: // same instant as now
					at = now
				case 1: // far-future spike
					at = now + Time(rng.Intn(1<<20))
				default: // near-term
					at = now + Time(rng.Intn(300))
				}
				if rng.Intn(4) == 0 {
					q.PushFront(at, id)
					ref.push(at, 0, id)
				} else {
					q.Push(at, id)
					ref.push(at, 1, id)
				}
				id++
			case op < 8: // peek
				e, ok := q.Peek()
				if !ok {
					t.Fatalf("seed %d step %d: Peek empty with Len=%d", seed, i, q.Len())
				}
				if e.At < now {
					t.Fatalf("seed %d step %d: Peek At %d below now %d", seed, i, e.At, now)
				}
			default: // pop both, compare
				e, ok := q.Pop()
				re, rok := ref.pop()
				if ok != rok {
					t.Fatalf("seed %d step %d: Pop ok=%v ref=%v", seed, i, ok, rok)
				}
				if e.At != re.at || e.Value.(int) != re.value.(int) {
					t.Fatalf("seed %d step %d: Pop (t=%d id=%d) vs ref (t=%d id=%d)",
						seed, i, e.At, e.Value, re.at, re.value)
				}
				now = e.At
			}
		}
		// Drain: the tails must match exactly.
		for {
			e, ok := q.Pop()
			re, rok := ref.pop()
			if ok != rok {
				t.Fatalf("seed %d drain: ok=%v ref=%v", seed, ok, rok)
			}
			if !ok {
				break
			}
			if e.At != re.at || e.Value.(int) != re.value.(int) {
				t.Fatalf("seed %d drain: (t=%d id=%d) vs ref (t=%d id=%d)",
					seed, e.At, e.Value, re.at, re.value)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: Len=%d after drain", seed, q.Len())
		}
	}
}
