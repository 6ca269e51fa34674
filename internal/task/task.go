// Package task models GPU workloads as they appear in the GFS paper:
// a task τ = <w, g, ζ, ψ, ι> requests w pods of g GPUs each, has a
// type ζ (high-priority or spot), a set of checkpoint milestones ψ,
// and accumulates runtime logs ι across its (possibly preempted)
// runs.
package task

import (
	"fmt"

	"github.com/sjtucitlab/gfs/internal/simclock"
)

// Type distinguishes the two workload classes. High-priority (HP)
// tasks are never preempted; spot tasks may be evicted whenever an HP
// task needs their GPUs.
type Type int

const (
	// Spot is a low-priority, preemptible task (ζ = 0).
	Spot Type = iota
	// HP is a high-priority, non-preemptible task (ζ = 1).
	HP
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Spot:
		return "spot"
	case HP:
		return "hp"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// State is a task's lifecycle stage.
type State int

const (
	// Pending tasks wait in the scheduler queue.
	Pending State = iota
	// Running tasks hold GPUs on one or more nodes.
	Running
	// Finished tasks completed all required work.
	Finished
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// RunLog is one entry of the runtime log set ι: the k-th run of a
// task, its start and end, and the checkpoint progress reached when
// the run ended.
type RunLog struct {
	Start simclock.Time
	End   simclock.Time
	// Progress is the total checkpoint-saved work (seconds of
	// execution) at the end of this run.
	Progress simclock.Duration
	// Evicted reports whether the run ended in preemption rather
	// than completion or natural pause.
	Evicted bool
}

// Task is a schedulable unit of work.
type Task struct {
	ID  int
	Org string
	// GPUModel constrains placement to nodes of this model
	// (e.g. "A100"). Empty means any model.
	GPUModel string

	// Pods is w: the number of pods requested.
	Pods int
	// GPUsPerPod is g: GPUs requested by each pod. Values below 1
	// request a fraction of a single card.
	GPUsPerPod float64
	// Type is ζ.
	Type Type
	// Gang requires all pods to start simultaneously.
	Gang bool

	// Duration is the total execution time the task needs to
	// finish.
	Duration simclock.Duration
	// CheckpointEvery is the interval between checkpoint
	// milestones ψ. Zero means the task never checkpoints, so any
	// eviction loses all progress.
	CheckpointEvery simclock.Duration

	// Submit is when the task entered the system.
	Submit simclock.Time

	// Mutable lifecycle fields.
	State State
	// Progress is checkpoint-saved work completed so far.
	Progress simclock.Duration
	// StartedAt is the start of the current run (valid when
	// Running).
	StartedAt simclock.Time
	// FinishedAt is when the task completed (valid when Finished).
	FinishedAt simclock.Time
	// FirstStart is the start of the first run, or -1 before any
	// run.
	FirstStart simclock.Time
	// Evictions counts preemptions suffered so far.
	Evictions int
	// Runs is the runtime log set ι.
	Runs []RunLog
	// QueuedSince is when the task last became Pending.
	QueuedSince simclock.Time
	// TotalQueue accumulates completed queue segments (excludes
	// the currently open segment).
	TotalQueue simclock.Duration
}

// New constructs a pending task with the given identity and shape.
func New(id int, typ Type, pods int, gpusPerPod float64, duration simclock.Duration) *Task {
	return &Task{
		ID:         id,
		Type:       typ,
		Pods:       pods,
		GPUsPerPod: gpusPerPod,
		Duration:   duration,
		State:      Pending,
		FirstStart: -1,
	}
}

// TotalGPUs returns w·g, the task's aggregate GPU request. The
// conversion rounds it, so no platform fuses it into a caller's sum.
func (t *Task) TotalGPUs() float64 { return float64(float64(t.Pods) * t.GPUsPerPod) }

// PodCards returns the whole cards one pod needs free: a fractional pod
// counts as one.
func (t *Task) PodCards() int {
	if t.GPUsPerPod < 1 {
		return 1
	}
	return int(t.GPUsPerPod)
}

// Remaining returns the work still to be done given checkpoint-saved
// progress.
func (t *Task) Remaining() simclock.Duration {
	if t.Progress >= t.Duration {
		return 0
	}
	return t.Duration - t.Progress
}

// EnterQueue marks the task pending as of now.
func (t *Task) EnterQueue(now simclock.Time) {
	t.State = Pending
	t.QueuedSince = now
}

// Start begins a run at now. It returns the simulated time at which
// the task will finish if never interrupted.
func (t *Task) Start(now simclock.Time) simclock.Time {
	t.TotalQueue += now.Sub(t.QueuedSince)
	t.State = Running
	t.StartedAt = now
	if t.FirstStart < 0 {
		t.FirstStart = now
	}
	return now.Add(t.Remaining())
}

// checkpointedProgress returns progress rounded down to the last
// checkpoint milestone, given work done in the current run.
func (t *Task) checkpointedProgress(ranFor simclock.Duration) simclock.Duration {
	total := t.Progress + ranFor
	if t.CheckpointEvery <= 0 {
		return t.Progress // nothing saved beyond prior checkpoints
	}
	saved := (total / t.CheckpointEvery) * t.CheckpointEvery
	if saved < t.Progress {
		saved = t.Progress
	}
	if saved > t.Duration {
		saved = t.Duration
	}
	return saved
}

// SinceLastCheckpoint returns the un-checkpointed work at time now for
// a running task; this is the (t − t_check) factor of the paper's
// waste metric Eq. (17).
func (t *Task) SinceLastCheckpoint(now simclock.Time) simclock.Duration {
	if t.State != Running {
		return 0
	}
	ranFor := now.Sub(t.StartedAt)
	saved := t.checkpointedProgress(ranFor)
	return t.Progress + ranFor - saved
}

// Waste returns ϑ_τ = g·w·(t − t_check): GPU-seconds that would be
// lost if the task were preempted at now (Eq. 17).
func (t *Task) Waste(now simclock.Time) float64 {
	return t.TotalGPUs() * float64(t.SinceLastCheckpoint(now))
}

// Evict preempts a running task at now. Progress rolls back to the
// last checkpoint milestone and the task returns to Pending. It
// returns the wasted GPU-seconds.
func (t *Task) Evict(now simclock.Time) float64 {
	if t.State != Running {
		return 0
	}
	waste := t.Waste(now)
	ranFor := now.Sub(t.StartedAt)
	t.Progress = t.checkpointedProgress(ranFor)
	t.Evictions++
	t.Runs = append(t.Runs, RunLog{
		Start:    t.StartedAt,
		End:      now,
		Progress: t.Progress,
		Evicted:  true,
	})
	t.EnterQueue(now)
	return waste
}

// Finish completes the task at now.
func (t *Task) Finish(now simclock.Time) {
	t.Progress = t.Duration
	t.State = Finished
	t.FinishedAt = now
	t.Runs = append(t.Runs, RunLog{
		Start:    t.StartedAt,
		End:      now,
		Progress: t.Progress,
	})
}

// JCT is the job completion time: finish minus submission. It is only
// meaningful for finished tasks.
func (t *Task) JCT() simclock.Duration {
	if t.State != Finished {
		return 0
	}
	return t.FinishedAt.Sub(t.Submit)
}

// JQT is the job queuing time: the cumulative time spent pending
// across all queue segments (the paper sums segments for preempted
// spot tasks).
func (t *Task) JQT() simclock.Duration { return t.TotalQueue }

// RunCount returns the number of completed runs (evictions plus the
// final successful run, if any).
func (t *Task) RunCount() int { return len(t.Runs) }

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s, %d×%.2f GPU, %s)", t.ID, t.Type, t.Pods, t.GPUsPerPod, t.State)
}
