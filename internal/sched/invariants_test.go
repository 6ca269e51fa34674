package sched

import (
	"math/rand"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// TestSimulationInvariants drives randomized workloads through the
// simulator and checks the invariants every scheduler must preserve:
// capacity conservation, HP immunity to eviction, consistent run
// logs, and monotone per-task timelines.
func TestSimulationInvariants(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		nodes := 2 + rng.Intn(6)
		cl := cluster.NewHomogeneous("A100", nodes, 8)
		nTasks := 20 + rng.Intn(60)
		var tasks []*task.Task
		for i := 0; i < nTasks; i++ {
			typ := task.Spot
			if rng.Float64() < 0.6 {
				typ = task.HP
			}
			pods := 1
			if rng.Float64() < 0.2 {
				pods = 1 + rng.Intn(3)
			}
			g := float64(1 + rng.Intn(8))
			dur := simclock.Duration(10+rng.Intn(200)) * simclock.Minute
			tk := task.New(i+1, typ, pods, g, dur)
			tk.Submit = simclock.Time(rng.Intn(12 * 3600))
			if typ == task.Spot {
				tk.CheckpointEvery = simclock.Duration(10+rng.Intn(60)) * simclock.Minute
			}
			tasks = append(tasks, tk)
		}
		cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}
		cfg.Quota = StaticQuota{Fraction: 0.3 + rng.Float64()*0.4}
		cfg.limits = &limits{grace: paperLimits.grace, maxFailures: paperLimits.maxFailures, idleTimeout: 12 * simclock.Hour}
		res, _ := runSolo(t, cfg, tasks, nil)

		// Capacity conservation: used equals the footprint of
		// still-running tasks.
		running := 0.0
		for _, tk := range tasks {
			if tk.State == task.Running {
				running += tk.TotalGPUs()
			}
		}
		if used := cl.UsedGPUs(""); abs(used-running) > 1e-6 {
			t.Fatalf("trial %d: capacity leak: used %v vs running %v", trial, used, running)
		}

		for _, tk := range tasks {
			// HP tasks are never evicted.
			if tk.Type == task.HP && tk.Evictions > 0 {
				t.Fatalf("trial %d: HP task %d evicted", trial, tk.ID)
			}
			// Run logs are time-ordered and non-overlapping.
			for r := 1; r < len(tk.Runs); r++ {
				if tk.Runs[r].Start < tk.Runs[r-1].End {
					t.Fatalf("trial %d: task %d runs overlap", trial, tk.ID)
				}
			}
			// Every run except the last ended in eviction; the
			// last ended in eviction only if still pending.
			for r, run := range tk.Runs {
				last := r == len(tk.Runs)-1
				if !last && !run.Evicted {
					t.Fatalf("trial %d: task %d has a non-final completed run", trial, tk.ID)
				}
				if last && tk.State == task.Finished && run.Evicted {
					t.Fatalf("trial %d: task %d finished from an evicted run", trial, tk.ID)
				}
			}
			// Finished tasks account for their full duration.
			if tk.State == task.Finished {
				if tk.Progress != tk.Duration {
					t.Fatalf("trial %d: task %d finished with progress %v of %v",
						trial, tk.ID, tk.Progress, tk.Duration)
				}
				if tk.FinishedAt < tk.Submit {
					t.Fatalf("trial %d: task %d finished before submission", trial, tk.ID)
				}
			}
		}

		// Eviction metrics are internally consistent.
		if res.Spot.Evictions > res.Spot.Runs {
			t.Fatalf("trial %d: evictions %d exceed runs %d", trial,
				res.Spot.Evictions, res.Spot.Runs)
		}
		if res.AllocationRate < 0 || res.AllocationRate > 1 {
			t.Fatalf("trial %d: allocation rate %v", trial, res.AllocationRate)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestGFSSimulationInvariants repeats the invariant check with the
// full GFS stack (quota + ramp + PTS) wired through the facade-level
// configuration, exercising preemption, requeue, and quota deferral
// together.
func TestSimulationNeverLosesTasks(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		cl := cluster.NewHomogeneous("A100", 4, 8)
		var tasks []*task.Task
		for i := 0; i < 50; i++ {
			typ := task.Spot
			if rng.Float64() < 0.5 {
				typ = task.HP
			}
			tk := task.New(i+1, typ, 1, float64(1+rng.Intn(4)),
				simclock.Duration(5+rng.Intn(60))*simclock.Minute)
			tk.Submit = simclock.Time(rng.Intn(6 * 3600))
			tk.CheckpointEvery = 20 * simclock.Minute
			tasks = append(tasks, tk)
		}
		res, _ := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}, tasks, nil)
		// Light load, plentiful capacity: every task must finish.
		if res.UnfinishedHP+res.UnfinishedSpot != 0 {
			t.Fatalf("trial %d: %d/%d tasks unfinished under light load",
				trial, res.UnfinishedHP, res.UnfinishedSpot)
		}
	}
}
