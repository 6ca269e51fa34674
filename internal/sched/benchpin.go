// Bench pins: the stepping API only bench/ compiles against, each a
// forwarder to what fedSim, the one driver, calls. No program may use
// them (TestBenchPinsHaveNoProgramCaller); ROADMAP item 1a deletes it.

package sched

import (
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Simulator is the stepping simulator. Bench pin (ROADMAP item 1a).
type Simulator = simulator

// NewSimulator builds a simulator over a preloaded trace without
// running it. Bench pin (ROADMAP item 1a).
func NewSimulator(cfg SimConfig, tasks []*task.Task) *Simulator {
	return newSimulator(cfg, tasks, nil)
}

// Step forwards to step. Bench pin (ROADMAP item 1a).
func (s *simulator) Step() bool { return s.step() }

// PeekTime forwards to peekTime. Bench pin (ROADMAP item 1a).
func (s *simulator) PeekTime() (simclock.Time, bool) { return s.peekTime() }

// Inject forwards to inject. Bench pin (ROADMAP item 1a).
func (s *simulator) Inject(tk *task.Task, at simclock.Time) { s.inject(tk, at) }

// Finish forwards to finish. Bench pin (ROADMAP item 1a).
func (s *simulator) Finish() *Result { return s.finish() }

// PendingTasks counts queued tasks. Bench pin (ROADMAP item 1a).
func (s *simulator) PendingTasks() int { return s.pend.n }
