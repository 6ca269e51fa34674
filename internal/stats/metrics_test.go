package stats

import (
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

func finishedTask(id int, typ task.Type, submit, start, finish simclock.Time) *task.Task {
	tk := task.New(id, typ, 1, 1, finish.Sub(start))
	tk.Submit = submit
	tk.EnterQueue(submit)
	tk.Start(start)
	tk.Finish(finish)
	return tk
}

func TestSummarizeBasics(t *testing.T) {
	tasks := []*task.Task{
		finishedTask(1, task.HP, 0, 10, 110),   // JCT 110, JQT 10
		finishedTask(2, task.HP, 0, 30, 130),   // JCT 130, JQT 30
		finishedTask(3, task.Spot, 0, 50, 150), // other class
	}
	m := Summarize(tasks, task.HP)
	if m.Count != 2 {
		t.Fatalf("count = %d, want 2", m.Count)
	}
	if math.Abs(m.JCT-120) > 1e-9 {
		t.Fatalf("JCT = %v, want 120", m.JCT)
	}
	if math.Abs(m.JQT-20) > 1e-9 {
		t.Fatalf("JQT = %v, want 20", m.JQT)
	}
	if m.MaxJQT != 30 {
		t.Fatalf("MaxJQT = %v, want 30", m.MaxJQT)
	}
	if m.EvictionRate != 0 {
		t.Fatalf("HP eviction rate must be 0, got %v", m.EvictionRate)
	}
}

func TestSummarizeEvictionRate(t *testing.T) {
	// Spot task evicted twice then finished: 3 runs, 2 evictions.
	tk := task.New(1, task.Spot, 1, 1, 300)
	tk.CheckpointEvery = 1
	tk.EnterQueue(0)
	tk.Start(0)
	tk.Evict(100)
	tk.Start(200)
	tk.Evict(300)
	tk.Start(400)
	tk.Finish(500)
	m := Summarize([]*task.Task{tk}, task.Spot)
	if m.Runs != 3 || m.Evictions != 2 {
		t.Fatalf("runs=%d evictions=%d, want 3/2", m.Runs, m.Evictions)
	}
	if math.Abs(m.EvictionRate-2.0/3.0) > 1e-9 {
		t.Fatalf("eviction rate = %v, want 2/3", m.EvictionRate)
	}
}

func TestSummarizeIncludesPendingQueueTime(t *testing.T) {
	tk := task.New(1, task.Spot, 1, 1, 100)
	tk.EnterQueue(0)
	tk.Start(40)
	tk.Evict(50)
	// Still pending; completed queue segment is 40.
	m := Summarize([]*task.Task{tk}, task.Spot)
	if m.JQT != 40 {
		t.Fatalf("JQT = %v, want 40", m.JQT)
	}
	if m.Count != 1 {
		t.Fatalf("count = %d, want 1", m.Count)
	}
}

func TestAllocationTrackerAverages(t *testing.T) {
	tr := NewAllocationTracker(10)
	tr.Observe(0, 0)
	tr.Observe(10, 10) // 0 used over [0,10)
	tr.Observe(20, 5)  // 10 used over [10,20)
	tr.Observe(30, 5)  // 5 used over [20,30)
	want := (0.0*10 + 10*10 + 5*10) / (30.0 * 10)
	if math.Abs(tr.Rate()-want) > 1e-12 {
		t.Fatalf("rate = %v, want %v", tr.Rate(), want)
	}
}

func TestAllocationTrackerEmpty(t *testing.T) {
	tr := NewAllocationTracker(10)
	if tr.Rate() != 0 {
		t.Fatal("no observations → rate 0")
	}
	tr.Observe(5, 5)
	if tr.Rate() != 0 {
		t.Fatal("single observation spans no time → rate 0")
	}
}

func TestEvictionWindowRate(t *testing.T) {
	w := NewEvictionWindow(simclock.Hour)
	w.Record(0, true)
	w.Record(simclock.Time(10*simclock.Minute), false)
	// Within the hour: 1 eviction of 2 runs.
	if got := w.Rate(simclock.Time(30 * simclock.Minute)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rate = %v, want 0.5", got)
	}
	// After 2 hours both events have aged out.
	if got := w.Rate(simclock.Time(2 * simclock.Hour)); got != 0 {
		t.Fatalf("rate = %v, want 0 after window", got)
	}
}
