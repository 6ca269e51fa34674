package stats

import (
	"sort"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// TaskMetrics summarizes scheduler performance for one task class,
// matching §4.2 of the paper.
type TaskMetrics struct {
	Count int
	// JCT is the mean job completion time in seconds.
	JCT float64
	// JCTP99 is the 99th-percentile completion time.
	JCTP99 float64
	// JQT is the mean cumulative queuing time in seconds.
	JQT float64
	// MaxJQT is the maximum queuing time (feeds the η update rule).
	MaxJQT float64
	// EvictionRate e = evicted runs / total runs.
	EvictionRate float64
	// Evictions is the total number of eviction events.
	Evictions int
	// Runs is the total number of runs (evicted + completed).
	Runs int
}

// Summarize computes TaskMetrics over finished (and, for queuing,
// all) tasks of the given type.
func Summarize(tasks []*task.Task, typ task.Type) TaskMetrics {
	var m TaskMetrics
	for _, tk := range tasks {
		if tk.Type == typ {
			m.Count++
		}
	}
	buf := make([]float64, 2*m.Count)
	jcts, jqts := buf[:0:m.Count], buf[m.Count:m.Count]
	for _, tk := range tasks {
		if tk.Type != typ {
			continue
		}
		m.Evictions += tk.Evictions
		m.Runs += tk.RunCount()
		if tk.State == task.Finished {
			jcts = append(jcts, tk.JCT().Seconds())
		}
		jqts = append(jqts, tk.JQT().Seconds())
	}
	// Mean sums in slice order, so it reads jcts before the sort.
	m.JCT = Mean(jcts)
	if len(jcts) > 0 {
		sort.Float64s(jcts)
		m.JCTP99 = quantileSorted(jcts, 0.99)
	}
	m.JQT = Mean(jqts)
	m.MaxJQT = Max(jqts)
	if len(jqts) == 0 {
		m.MaxJQT = 0
	}
	if m.Runs > 0 {
		m.EvictionRate = float64(m.Evictions) / float64(m.Runs)
	}
	return m
}

// AllocationTracker integrates the cluster's GPU allocation over
// simulated time to produce the time-averaged allocation rate. The
// capacity may change mid-run (node failures, provisioning): the rate is
// then ∫used dt / ∫capacity dt over the observed span. It keeps the
// integrals only; a timeline of observations is a collector's job.
type AllocationTracker struct {
	capacity float64
	lastT    simclock.Time
	lastUsed float64
	area     float64 // ∫ used dt
	capArea  float64 // ∫ capacity dt
	span     simclock.Duration
	started  bool
}

// NewAllocationTracker creates a tracker for a cluster of the given
// capacity.
func NewAllocationTracker(capacity float64) *AllocationTracker {
	return &AllocationTracker{capacity: capacity}
}

// Observe records the currently used capacity at time t. Calls must
// be in nondecreasing time order.
func (a *AllocationTracker) Observe(t simclock.Time, used float64) {
	if a.started {
		dt := t.Sub(a.lastT)
		// Rounded products: no platform fuses them into the sums.
		a.area += float64(a.lastUsed * float64(dt))
		a.capArea += float64(a.capacity * float64(dt))
		a.span += dt
	}
	a.started = true
	a.lastT = t
	a.lastUsed = used
}

// SetCapacity closes the current integration window at time t and
// switches to a new capacity (node failure, restore, or provisioning).
func (a *AllocationTracker) SetCapacity(t simclock.Time, capacity float64) {
	if a.started {
		a.Observe(t, a.lastUsed)
	}
	a.capacity = capacity
}

// Capacity returns the tracker's current capacity.
func (a *AllocationTracker) Capacity() float64 { return a.capacity }

// Integrals returns the raw integrals behind Rate — ∫used dt and
// ∫capacity dt — so several trackers (e.g. one per federation
// member) can combine into one aggregate rate.
func (a *AllocationTracker) Integrals() (usedGPUSeconds, capacityGPUSeconds float64) {
	return a.area, a.capArea
}

// Rate returns the time-averaged allocation rate observed so far.
func (a *AllocationTracker) Rate() float64 {
	if a.span == 0 || a.capArea == 0 {
		return 0
	}
	return a.area / a.capArea
}

// EvictionWindow tracks eviction and completion counts over a sliding
// window, yielding the real eviction rate e that drives the SQA
// feedback loop.
type EvictionWindow struct {
	window simclock.Duration
	events []evictionEvent
}

type evictionEvent struct {
	at      simclock.Time
	evicted bool
}

// NewEvictionWindow creates a tracker with the given lookback window.
func NewEvictionWindow(window simclock.Duration) *EvictionWindow {
	return &EvictionWindow{window: window}
}

// Record notes a run ending at time t, either evicted or completed.
func (w *EvictionWindow) Record(t simclock.Time, evicted bool) {
	w.events = append(w.events, evictionEvent{at: t, evicted: evicted})
}

func (w *EvictionWindow) trim(now simclock.Time) {
	cutoff := now.Add(-w.window)
	i := 0
	for i < len(w.events) && w.events[i].at < cutoff {
		i++
	}
	if i > 0 {
		w.events = append(w.events[:0], w.events[i:]...)
	}
}

// Rate returns evictions / runs within the window ending at now, or 0
// when no runs ended in the window.
func (w *EvictionWindow) Rate(now simclock.Time) float64 {
	w.trim(now)
	if len(w.events) == 0 {
		return 0
	}
	ev := 0
	for _, e := range w.events {
		if e.evicted {
			ev++
		}
	}
	return float64(ev) / float64(len(w.events))
}
