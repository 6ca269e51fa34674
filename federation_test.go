package gfs_test

import (
	"fmt"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// stormMembers builds the standard two-member test federation: "west"
// loses zone-0 (half its nodes) from hour 6 to hour 12, "east" stays
// calm. Fresh state per call, as federated runs require.
func stormMembers() []gfs.Member {
	storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
		RestoreDomain(12*gfs.Hour, "zone-0")
	return []gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(topoCluster(), gfs.WithScenario(storm))},
		{Name: "east", Engine: gfs.NewEngine(topoCluster())},
	}
}

// TestFederationSpillover: a correlated zone failure on one member
// must produce migrations to its sibling, with TaskMigrated and
// ClusterSaturated on the federation stream.
func TestFederationSpillover(t *testing.T) {
	log := &sched.EventLog{}
	fed := gfs.NewFederation(stormMembers(), gfs.WithFederationObserver(log))
	res := fed.Run(chaosTrace(17))

	if res.Migrations == 0 {
		t.Fatal("zone failure should force spillover migrations")
	}
	west, east := res.Member("west"), res.Member("east")
	if west == nil || east == nil {
		t.Fatal("missing member results")
	}
	if west.MigratedOut == 0 || east.MigratedIn == 0 {
		t.Fatalf("expected west→east migration, got out=%d in=%d",
			west.MigratedOut, east.MigratedIn)
	}
	migrated := log.Filter(gfs.TaskMigrated)
	if len(migrated) != res.Migrations {
		t.Fatalf("%d TaskMigrated events, result counts %d", len(migrated), res.Migrations)
	}
	failAt := gfs.Time(0).Add(6 * gfs.Hour)
	for _, e := range migrated {
		if e.Member != "west" || e.Target != "east" {
			t.Fatalf("migration %s → %s; only west→east is possible here", e.Member, e.Target)
		}
		if e.At < failAt {
			t.Fatalf("migration at t=%d, before the failure", e.At)
		}
	}
	if len(log.Filter(gfs.ClusterSaturated)) == 0 {
		t.Fatal("spillover must flag the source member as saturated")
	}
	if res.GoodputGPUSeconds <= 0 {
		t.Fatal("no goodput recorded")
	}
}

// TestFederationTaskConservation is the invariant test: every trace
// task ends on exactly one member — migrated or terminally resolved,
// never duplicated, never lost.
func TestFederationTaskConservation(t *testing.T) {
	tasks := chaosTrace(17)
	res := gfs.NewFederation(stormMembers()).Run(tasks)

	owner := make(map[int]string, len(tasks))
	for _, m := range res.Members {
		for _, tk := range m.Result.Tasks {
			if prev, dup := owner[tk.ID]; dup {
				t.Fatalf("task %d appears on both %s and %s", tk.ID, prev, m.Name)
			}
			owner[tk.ID] = m.Name
		}
	}
	if len(owner) != len(tasks) {
		t.Fatalf("%d tasks in member results, trace has %d", len(owner), len(tasks))
	}
	for _, tk := range tasks {
		if _, ok := owner[tk.ID]; !ok {
			t.Fatalf("task %d lost by the federation", tk.ID)
		}
	}
	// Terminal accounting must balance too: every task is finished or
	// counted unfinished somewhere.
	finished := 0
	for _, m := range res.Members {
		for _, tk := range m.Result.Tasks {
			if tk.State == gfs.StateFinished {
				finished++
			}
		}
	}
	if finished+res.Unfinished != len(tasks) {
		t.Fatalf("finished %d + unfinished %d ≠ %d tasks",
			finished, res.Unfinished, len(tasks))
	}
}

// TestFederationNoSpillover: with spillover disabled the members are
// isolated; nothing migrates.
func TestFederationNoSpillover(t *testing.T) {
	fed := gfs.NewFederation(stormMembers(), gfs.WithSpillover(nil))
	res := fed.Run(chaosTrace(17))
	if res.Migrations != 0 {
		t.Fatalf("spillover disabled but %d migrations happened", res.Migrations)
	}
	for _, m := range res.Members {
		if m.MigratedIn != 0 || m.MigratedOut != 0 {
			t.Fatalf("member %s migrated in=%d out=%d with spillover off",
				m.Name, m.MigratedIn, m.MigratedOut)
		}
	}
}

// TestFederationMigrationDelay: a spilled task reaches its new member
// no earlier than the configured delay after the capacity loss.
func TestFederationMigrationDelay(t *testing.T) {
	const delay = 10 * gfs.Minute
	log := &sched.EventLog{}
	fed := gfs.NewFederation(stormMembers(),
		gfs.WithMigrationDelay(delay),
		gfs.WithFederationObserver(log))
	fed.Run(chaosTrace(17))

	evictAt := make(map[int]gfs.Time)
	for _, e := range log.Events {
		switch e.Kind {
		case gfs.TaskEvicted:
			evictAt[e.Task.ID] = e.At
		case gfs.TaskMigrated:
			since, ok := evictAt[e.Task.ID]
			if !ok {
				t.Fatalf("task %d migrated without a preceding eviction", e.Task.ID)
			}
			if e.At.Sub(since) < delay {
				t.Fatalf("task %d migrated %ds after eviction, want ≥ %ds",
					e.Task.ID, e.At.Sub(since), delay)
			}
		}
	}
	if len(log.Filter(gfs.TaskMigrated)) == 0 {
		t.Fatal("scenario should migrate at least one task")
	}
}

// TestFederationRoutePolicies: cheapest-spot prefers the cheaper
// member for spot tasks while round-robin splits arrivals evenly.
func TestFederationRoutePolicies(t *testing.T) {
	cheapMembers := func() []gfs.Member {
		return []gfs.Member{
			{Name: "h800", Engine: gfs.NewEngine(gfs.NewCluster("H800", 16, 8))},
			{Name: "a10", Engine: gfs.NewEngine(gfs.NewCluster("A10", 16, 8))},
		}
	}
	res := gfs.NewFederation(cheapMembers(), gfs.WithRoute(gfs.RouteCheapestSpot())).
		Run(chaosTrace(5))
	cheap := res.Member("a10")
	spotOnCheap := 0
	for _, tk := range cheap.Result.Tasks {
		if tk.Type == gfs.Spot {
			spotOnCheap++
		}
	}
	if spotOnCheap == 0 {
		t.Fatal("cheapest-spot routed no spot tasks to the cheap member")
	}
	expensive := res.Member("h800")
	for _, tk := range expensive.Result.Tasks {
		if tk.Type == gfs.Spot {
			t.Fatalf("spot task %d on the expensive member while the cheap one had room", tk.ID)
		}
	}

	rr := gfs.NewFederation(cheapMembers(), gfs.WithRoute(gfs.RouteRoundRobin()),
		gfs.WithSpillover(nil)).Run(chaosTrace(5))
	a, b := rr.Members[0].Routed, rr.Members[1].Routed
	if a-b > 1 || b-a > 1 {
		t.Fatalf("round-robin split %d/%d, want even ±1", a, b)
	}
}

// TestFederationDeterminismAcrossWorkers is the federation acceptance
// test: federated RunBatch sweeps produce byte-identical event logs
// at 1, 4 and 8 workers.
func TestFederationDeterminismAcrossWorkers(t *testing.T) {
	const runs = 4
	sweep := func(workers int) []string {
		logs := make([]*sched.EventLog, runs)
		var specs []gfs.BatchSpec
		for i := 0; i < runs; i++ {
			i := i
			logs[i] = &sched.EventLog{}
			specs = append(specs, gfs.BatchSpec{
				Name: fmt.Sprintf("seed-%d", i+1),
				SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
					fed := gfs.NewFederation(stormMembers(),
						gfs.WithRoute(gfs.RouteForecastAware()),
						gfs.WithFederationObserver(logs[i]))
					return fed, chaosTrace(int64(i + 1))
				},
			})
		}
		for _, br := range gfs.RunBatch(specs, gfs.WithWorkers(workers)) {
			if br.Err != nil {
				t.Fatalf("run %s: %v", br.Name, br.Err)
			}
			if br.Fed == nil {
				t.Fatalf("run %s: no federation result", br.Name)
			}
		}
		out := make([]string, runs)
		for i, l := range logs {
			out[i] = l.String()
		}
		return out
	}
	serial := sweep(1)
	for _, workers := range []int{4, 8} {
		parallel := sweep(workers)
		for i := range serial {
			if serial[i] == "" {
				t.Fatalf("run %d recorded no events", i)
			}
			if serial[i] != parallel[i] {
				t.Fatalf("run %d: event log differs between 1 and %d workers", i, workers)
			}
		}
	}
}

// TestFederationBatchSpecValidation: ambiguous or empty specs surface
// as errors, not crashes.
func TestFederationBatchSpecValidation(t *testing.T) {
	results := gfs.RunBatch([]gfs.BatchSpec{
		{Name: "both",
			Setup:           func() (*gfs.Engine, []*gfs.Task) { return nil, nil },
			SetupFederation: func() (*gfs.Federation, []*gfs.Task) { return nil, nil }},
		{Name: "neither"},
	})
	for _, br := range results {
		if br.Err == nil {
			t.Fatalf("spec %q should error", br.Name)
		}
	}
}
