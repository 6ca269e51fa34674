package sched

import (
	"context"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// fedTestConfig builds a member configuration of one-node racks for
// the low-level loop tests.
func fedTestConfig(nodes int) SimConfig {
	return DefaultSimConfig(oneNodeRacks(cluster.NewHomogeneous("A100", nodes, 8)), &firstFit{})
}

// runFed runs a preloaded federation to completion, failing the test
// on a configuration error.
func runFed(t *testing.T, cfg FedConfig, tasks []*task.Task) *FedResult {
	t.Helper()
	res, err := RunFederationContext(context.Background(), cfg, tasks, nil)
	if err != nil {
		t.Fatalf("RunFederationContext: %v", err)
	}
	return res
}

// TestFederationLateMigrationRestartsMember: a member whose event
// queue ran completely dry (tick chain stopped) must wake up and run
// a task migrated to it long after it went idle.
func TestFederationLateMigrationRestartsMember(t *testing.T) {
	// west: one node running a 48-hour spot task that a node failure
	// kills at hour 20. east: idle from the start; by hour 20 its
	// tick chain is long gone.
	westCfg := fedTestConfig(1)
	westCfg.Scenario = []ScenarioAction{rackDown(simclock.Time(0).Add(20*simclock.Hour), 0)}
	eastCfg := fedTestConfig(1)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 48*simclock.Hour, 0),
	}
	res := runFed(t, FedConfig{
		Members: []FedMember{
			{Name: "west", Cfg: westCfg},
			{Name: "east", Cfg: eastCfg},
		},
		// Route everything to west so east is idle until spillover.
		Route: &RouteRoundRobin{},
		Spill: SpillLeastLoaded{},
	}, tasks)

	if res.Migrations != 1 {
		t.Fatalf("want 1 migration, got %d", res.Migrations)
	}
	east := res.Member("east")
	if east == nil || len(east.Result.Tasks) != 1 {
		t.Fatalf("task should end on east: %+v", res)
	}
	if res.Unfinished != 0 {
		t.Fatalf("migrated task should finish on east, %d unfinished", res.Unfinished)
	}
	if tasks[0].State != task.Finished {
		t.Fatalf("task state %v, want finished", tasks[0].State)
	}
}

// TestFederationSpillKeepsLocalWhenFull: when no sibling has room,
// SpillLeastLoaded keeps the victim on its own member, which requeues
// and eventually reruns it.
func TestFederationSpillKeepsLocalWhenFull(t *testing.T) {
	westCfg := fedTestConfig(2)
	// Node 0 dies at hour 1 and comes back at hour 2.
	westCfg.Scenario = []ScenarioAction{
		rackDown(simclock.Time(0).Add(simclock.Hour), 0),
		rackUp(simclock.Time(0).Add(2*simclock.Hour), 0),
	}
	eastCfg := fedTestConfig(1)
	tasks := []*task.Task{
		mkTask(1, task.Spot, 1, 8, 90*simclock.Minute, 0), // west node 0, killed at hour 1
		mkTask(2, task.HP, 1, 8, 24*simclock.Hour, 0),     // west node 1
		mkTask(3, task.HP, 1, 8, 24*simclock.Hour, 0),     // east's only node: no room to spill
	}
	res := runFed(t, FedConfig{
		Members: []FedMember{
			{Name: "west", Cfg: westCfg},
			{Name: "east", Cfg: eastCfg},
		},
		Route: routeByID{}, // 1,2 → west; 3 → east
		Spill: SpillLeastLoaded{},
	}, tasks)

	if res.Migrations != 0 {
		t.Fatalf("no sibling had room, yet %d migrations", res.Migrations)
	}
	west := res.Member("west")
	if len(west.Result.Tasks) != 2 {
		t.Fatalf("west should keep both its tasks, has %d", len(west.Result.Tasks))
	}
	if tasks[0].State != task.Finished {
		t.Fatalf("victim should rerun locally after the restore, state %v", tasks[0].State)
	}
}

// routeByID sends tasks 1 and 2 to member 0 and everything else to
// member 1 — a fixed split for loop tests.
type routeByID struct{}

func (routeByID) Name() string { return "by-id" }

func (routeByID) Route(ctx *RouteContext) int {
	if ctx.Task.ID <= 2 {
		return 0
	}
	return 1
}

// TestInjectRestartsTickChain: Inject into a simulator whose queue
// ran dry must restart quota ticking so the new task is scheduled.
func TestInjectRestartsTickChain(t *testing.T) {
	cfg := fedTestConfig(1)
	cfg.Quota = StaticQuota{Fraction: 1}
	s := NewSimulator(cfg, []*task.Task{mkTask(1, task.HP, 1, 8, simclock.Hour, 0)})
	for s.Step() {
	}
	if _, ok := s.PeekTime(); ok {
		t.Fatal("simulator should be idle")
	}
	late := mkTask(2, task.Spot, 1, 8, simclock.Hour, 0)
	at := s.Now().Add(10 * simclock.Hour)
	s.Inject(late, at)
	for s.Step() {
	}
	res := s.Finish()
	if late.State != task.Finished {
		t.Fatalf("late-injected task state %v, want finished", late.State)
	}
	if res.UnfinishedSpot != 0 || len(res.Tasks) != 2 {
		t.Fatalf("unexpected result: %d tasks, %d unfinished spot",
			len(res.Tasks), res.UnfinishedSpot)
	}
}
