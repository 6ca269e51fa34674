package sched

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// denseTrace generates a dense one-day workload small enough for
// fast tests. Submissions are floored to the minute, so arrivals share
// instants with each other and with quota ticks; it fails the test if
// the seed yields no two arrivals at one instant.
func denseTrace(t testing.TB, seed int64) []*task.Task {
	t.Helper()
	cfg := trace.Default()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.SpotScale = 2
	cfg.MaxDuration = 6 * simclock.Hour
	tasks := trace.Generate(cfg)
	ties := 0
	for i, tk := range tasks {
		tk.Submit -= tk.Submit % simclock.Time(simclock.Minute)
		if i > 0 && tk.Submit == tasks[i-1].Submit {
			ties++
		}
	}
	if ties == 0 {
		t.Fatalf("denseTrace(%d): no same-instant arrivals", seed)
	}
	return tasks
}

// recordingPolicy counts the route and spill decisions asked of it.
type recordingPolicy struct{ calls int }

func (*recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) Route(*RouteContext) int { p.calls++; return 0 }

func (p *recordingPolicy) Spill(*SpillContext) int { p.calls++; return -1 }

// countingSource counts the tasks a source yields.
type countingSource struct {
	TaskSource
	n int
}

func (c *countingSource) Next() (*task.Task, error) {
	tk, err := c.TaskSource.Next()
	if err == nil {
		c.n++
	}
	return tk, err
}

// runSolo runs cfg as a federation of one — the call every Engine run
// makes — over tasks, or streamed from src, and fails the test unless
// the run consulted no policy, raised no saturation and counted every
// task given or streamed as routed.
func runSolo(t *testing.T, cfg SimConfig, tasks []*task.Task, src TaskSource) (*Result, error) {
	t.Helper()
	pol := &recordingPolicy{}
	counted := &countingSource{}
	if src != nil {
		counted.TaskSource, src = src, counted
	}
	res, err := RunFederationContext(context.Background(), FedConfig{
		Members: []FedMember{{Name: "solo", Cfg: cfg}}, Route: pol, Spill: pol,
	}, tasks, src)
	if pol.calls != 0 {
		t.Fatalf("a one-member run consulted its policies %d times", pol.calls)
	}
	if err != nil {
		return nil, err
	}
	if m := res.Members[0]; res.Saturations != 0 || m.Routed != len(tasks)+counted.n {
		t.Fatalf("one-member run: %d saturations, %d routed of %d tasks", res.Saturations, m.Routed, len(tasks)+counted.n)
	}
	return res.Members[0].Result, nil
}

// TestRunSourceMatchesRun: streaming a trace into a one-member run
// must be event-for-event identical to preloading it. One feed walks
// both, so arrivals tie-break alike and the quota tick chain keeps its
// phase through an idle gap: the gap case's only two tasks are an hour
// of HP work at t=0 and a spot task at 10 h.
func TestRunSourceMatchesRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
		tasks func() []*task.Task
	}{
		{"dense", 16, func() []*task.Task { return denseTrace(t, 41) }},
		{"idle-gap", 2, func() []*task.Task {
			return []*task.Task{
				mkTask(1, task.HP, 1, 8, simclock.Hour, 0),
				mkTask(2, task.Spot, 1, 8, simclock.Hour, simclock.Time(10*simclock.Hour)),
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(streamed bool) (*Result, *EventLog) {
				cl := cluster.NewHomogeneous("A100", c.nodes, 8)
				log := &EventLog{}
				cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}
				cfg.Quota = StaticQuota{Fraction: 0.5}
				cfg.Observers = []Observer{log}
				tasks := c.tasks()
				if !streamed {
					res, _ := runSolo(t, cfg, tasks, nil)
					return res, log
				}
				res, err := runSolo(t, cfg, nil, trace.SliceSource(tasks))
				if err != nil {
					t.Fatalf("streamed run: %v", err)
				}
				return res, log
			}
			eager, eagerLog := run(false)
			streamed, streamedLog := run(true)

			if a, b := eagerLog.String(), streamedLog.String(); a != b {
				al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
				for i := range al {
					if i >= len(bl) || al[i] != bl[i] {
						t.Fatalf("event logs diverge at line %d:\n  eager:    %s\n  streamed: %s", i, al[i], bl[i])
					}
				}
				t.Fatalf("event logs differ in length: %d vs %d lines", len(al), len(bl))
			}
			if eager.AllocationRate != streamed.AllocationRate ||
				eager.WastedGPUSeconds != streamed.WastedGPUSeconds ||
				eager.Spot.Evictions != streamed.Spot.Evictions ||
				eager.HP.JCT != streamed.HP.JCT || eager.End != streamed.End {
				t.Fatalf("metrics differ:\n eager    %+v\n streamed %+v", eager, streamed)
			}
			// The quota is updated every interval from the first
			// arrival through the last, idle or not.
			last := slices.MaxFunc(eager.Tasks, bySubmit).Submit
			ups := streamedLog.Filter(QuotaUpdated)
			for i := 1; i < len(ups); i++ {
				if gap := ups[i].At.Sub(ups[i-1].At); gap > quotaInterval {
					t.Fatalf("no quota update for %v after %v", gap, ups[i-1].At)
				}
			}
			if len(ups) == 0 || ups[len(ups)-1].At < last {
				t.Fatalf("quota updates stop before the last arrival at %v", last)
			}
		})
	}
}

// TestRunSourceWithScenario: replay composes with scenario injection;
// the streamed run matches the eager run under a mid-trace node kill.
func TestRunSourceWithScenario(t *testing.T) {
	scenario := []ScenarioAction{
		rackDown(4*simclock.Time(simclock.Hour), 3),
		rackUp(8*simclock.Time(simclock.Hour), 3),
		{At: 10 * simclock.Time(simclock.Hour), Op: OpReclaimSpot, Fraction: 0.5},
	}
	run := func(streamed bool) string {
		cl := oneNodeRacks(cluster.NewHomogeneous("A100", 8, 8))
		log := &EventLog{}
		cfg := SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}
		cfg.Observers = []Observer{log}
		cfg.Scenario = scenario
		tasks := denseTrace(t, 7)
		if !streamed {
			runSolo(t, cfg, tasks, nil)
		} else if _, err := runSolo(t, cfg, nil, trace.SliceSource(tasks)); err != nil {
			t.Fatalf("streamed run: %v", err)
		}
		return log.String()
	}
	if run(false) != run(true) {
		t.Fatal("scenario replay must match the eager run byte-for-byte")
	}
}

// TestRunSourceRejectsUnsorted: out-of-order submission times fail
// loudly instead of silently warping the clock.
func TestRunSourceRejectsUnsorted(t *testing.T) {
	cl := cluster.NewHomogeneous("A100", 2, 8)
	a := task.New(1, task.Spot, 1, 1, simclock.Hour)
	a.Submit = 100
	b := task.New(2, task.Spot, 1, 1, simclock.Hour)
	b.Submit = 50
	_, err := runSolo(t, SimConfig{Cluster: cl, Scheduler: &firstFit{}}, nil, trace.SliceSource([]*task.Task{a, b}))
	if err == nil || !strings.Contains(err.Error(), "submission order") {
		t.Fatalf("want submission-order error, got %v", err)
	}
}

// TestRunRefusesSliceAndSource: a feed walks one trace, so a run given
// both a task slice and a source is refused before anything runs.
func TestRunRefusesSliceAndSource(t *testing.T) {
	tasks := []*task.Task{mkTask(1, task.Spot, 1, 1, simclock.Hour, 0)}
	_, err := RunFederationContext(context.Background(), FedConfig{
		Members: []FedMember{{Cfg: fedTestConfig(1)}},
	}, tasks, trace.SliceSource([]*task.Task{mkTask(2, task.Spot, 1, 1, simclock.Hour, 0)}))
	if err == nil || tasks[0].State != task.Pending {
		t.Fatalf("a slice plus a source ran (err %v, first task %v)", err, tasks[0].State)
	}
}

// TestFederationSourceMatchesPreloaded: the lazily-fed federated loop
// produces the same result as the preloaded one.
func TestFederationSourceMatchesPreloaded(t *testing.T) {
	build := func() FedConfig {
		mk := func(name string) FedMember {
			cl := cluster.NewHomogeneous("A100", 8, 8)
			return FedMember{Name: name, Cfg: SimConfig{Cluster: cl, Scheduler: &firstFit{preempt: true}}}
		}
		return FedConfig{
			Members: []FedMember{mk("west"), mk("east")},
			Spill:   SpillLeastLoaded{},
		}
	}
	cfgA, cfgB := build(), build()
	logA, logB := &EventLog{}, &EventLog{}
	cfgA.Observers = []Observer{logA}
	cfgB.Observers = []Observer{logB}

	eager := runFed(t, cfgA, denseTrace(t, 13))
	streamed, err := RunFederationContext(context.Background(), cfgB, nil, trace.SliceSource(denseTrace(t, 13)))
	if err != nil {
		t.Fatalf("RunFederationContext: %v", err)
	}
	if logA.String() != logB.String() {
		t.Fatal("federated event logs must match between eager and streamed runs")
	}
	if eager.GoodputGPUSeconds != streamed.GoodputGPUSeconds ||
		eager.Migrations != streamed.Migrations ||
		eager.Unfinished != streamed.Unfinished {
		t.Fatalf("federated metrics differ:\n eager    %+v\n streamed %+v", eager, streamed)
	}
}

// TestFederationUnsortedPreloadMatchesSorted: a federation's feed walks
// an unsorted preload in stable Submit order, so a two-member run with
// spillover writes the same log over a shuffled trace as over its
// stably sorted copy.
func TestFederationUnsortedPreloadMatchesSorted(t *testing.T) {
	run := func(sorted bool) (string, *FedResult) {
		west, east := fedTestConfig(8), fedTestConfig(8)
		west.Scenario = []ScenarioAction{
			rackDown(simclock.Time(3*simclock.Hour), 0), rackDown(simclock.Time(3*simclock.Hour), 1),
			rackUp(simclock.Time(9*simclock.Hour), 0), rackUp(simclock.Time(9*simclock.Hour), 1),
		}
		log := &EventLog{}
		cfg := FedConfig{
			Members:   []FedMember{{Name: "west", Cfg: west}, {Name: "east", Cfg: east}},
			Spill:     SpillLeastLoaded{},
			Observers: []Observer{log},
		}
		tasks := denseTrace(t, 13)
		for _, tk := range tasks {
			tk.Submit -= tk.Submit % 600 // ties, which a stable sort keeps in shuffled order
		}
		rand.New(rand.NewSource(5)).Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		if sorted {
			slices.SortStableFunc(tasks, bySubmit)
		}
		res := runFed(t, cfg, tasks)
		return log.String(), res
	}
	shuffled, res := run(false)
	sorted, _ := run(true)
	if res.Migrations == 0 {
		t.Fatal("no task spilled; the run does not exercise migration")
	}
	if shuffled != sorted {
		t.Fatal("an unsorted federation preload must run as its stably sorted copy")
	}
}
