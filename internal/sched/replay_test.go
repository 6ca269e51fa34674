package sched

import (
	"context"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// denseTrace generates a dense one-day workload small enough for
// fast tests but busy enough that ties (same-second arrivals, quota
// ticks during arrivals) actually occur.
func denseTrace(seed int64) []*task.Task {
	cfg := trace.Default()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.SpotScale = 2
	cfg.MaxDuration = 6 * simclock.Hour
	return trace.Generate(cfg)
}

// recordingPolicy counts the route and spill decisions asked of it.
type recordingPolicy struct{ calls int }

func (*recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) Route(*RouteContext) int { p.calls++; return 0 }

func (p *recordingPolicy) Spill(*SpillContext) int { p.calls++; return -1 }

// runSolo runs cfg as a federation of one — the call every Engine run
// makes — over tasks, or streamed from src, and fails the test unless
// the run consulted no policy, raised no saturation and counted every
// task as routed.
func runSolo(t *testing.T, cfg SimConfig, tasks []*task.Task, src TaskSource) (*Result, error) {
	t.Helper()
	pol := &recordingPolicy{}
	res, err := RunFederationContext(context.Background(), FedConfig{
		Members: []FedMember{{Name: "solo", Cfg: cfg}}, Route: pol, Spill: pol,
	}, tasks, src)
	if pol.calls != 0 {
		t.Fatalf("a one-member run consulted its policies %d times", pol.calls)
	}
	if err != nil {
		return nil, err
	}
	if m := res.Members[0]; res.Saturations != 0 || m.Routed != len(m.Result.Tasks) {
		t.Fatalf("one-member run: %d saturations, %d routed of %d tasks", res.Saturations, m.Routed, len(m.Result.Tasks))
	}
	return res.Members[0].Result, nil
}

// TestRunSourceMatchesRun: streaming a trace into a one-member run
// must be event-for-event identical to preloading it — the PushFront
// arrival class makes mid-run injection tie-break exactly like
// construction-time queueing.
func TestRunSourceMatchesRun(t *testing.T) {
	run := func(streamed bool) (*Result, *EventLog) {
		cl := cluster.NewHomogeneous("A100", 16, 8)
		log := &EventLog{}
		cfg := DefaultSimConfig(cl, &firstFit{preempt: true})
		cfg.Quota = StaticQuota{Fraction: 0.5}
		cfg.Observers = []Observer{log}
		tasks := denseTrace(41)
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

	if eagerLog.String() != streamedLog.String() {
		a, b := eagerLog.String(), streamedLog.String()
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
		cfg := DefaultSimConfig(cl, &firstFit{preempt: true})
		cfg.Observers = []Observer{log}
		cfg.Scenario = scenario
		tasks := denseTrace(7)
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
	_, err := runSolo(t, DefaultSimConfig(cl, &firstFit{}), nil, trace.SliceSource([]*task.Task{a, b}))
	if err == nil || !strings.Contains(err.Error(), "submission order") {
		t.Fatalf("want submission-order error, got %v", err)
	}
}

// TestFederationSourceMatchesPreloaded: the lazily-fed federated loop
// produces the same result as the preloaded one.
func TestFederationSourceMatchesPreloaded(t *testing.T) {
	build := func() FedConfig {
		mk := func(name string) FedMember {
			cl := cluster.NewHomogeneous("A100", 8, 8)
			return FedMember{Name: name, Cfg: DefaultSimConfig(cl, &firstFit{preempt: true})}
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

	eager := runFed(t, cfgA, denseTrace(13))
	streamed, err := RunFederationContext(context.Background(), cfgB, nil, trace.SliceSource(denseTrace(13)))
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
