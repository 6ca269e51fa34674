package gfs_test

// The examples in this file are the runnable snippets behind
// docs/scenarios.md and docs/federation.md — each cookbook entry
// compiles (and where it has an Output comment, runs) as part of the
// test suite, so the docs cannot drift from the API.

import (
	"fmt"
	"math/rand"

	gfs "github.com/sjtucitlab/gfs"
)

// A scenario is a timed script of cluster mutations. Single-node
// primitives: kill, restore, drain, scale-out, reclamation burst.
func ExampleNewScenario() {
	sc := gfs.NewScenario().
		KillNodes(6*gfs.Hour, 3, 4).
		RestoreNodes(12*gfs.Hour, 3, 4).
		DrainNode(14*gfs.Hour, 5).
		ScaleOut(18*gfs.Hour, gfs.Pool{Model: "A100", Nodes: 4, GPUsPerNode: 8}).
		ReclaimSpot(20*gfs.Hour, 0.5)
	fmt.Println(sc.Len(), "actions")
	// Output: 7 actions
}

// Correlated failures target failure domains. AssignDomains lays a
// zone/rack topology over the cluster; FailDomain takes a whole rack
// down atomically.
func ExampleCorrelatedFailure() {
	cluster := gfs.NewClusterWithTopology("A100", 16, 8, 2, 4)
	sc := gfs.CorrelatedFailure(6*gfs.Hour, "zone-0/rack-0").
		RestoreDomain(9*gfs.Hour, "zone-0/rack-0")
	fmt.Println(len(cluster.Domains()), "domains,", sc.Len(), "actions")
	// Output: 8 domains, 2 actions
}

// Cascading failures spread to sibling domains with probability p,
// halving per hop. The seed makes every run byte-identical.
func ExampleCascadingFailure() {
	sc := gfs.CascadingFailure(6*gfs.Hour, "zone-0/rack-0", 0.6, 10*gfs.Minute, 42).
		RestoreDomain(12*gfs.Hour, "zone-0") // parent restores the whole zone
	fmt.Println(sc.Len(), "actions")
	// Output: 2 actions
}

// Diurnal reclamation storms make spot pressure follow the clock:
// hourly bursts whose intensity peaks at the profile's peak hour and
// is scaled by the pool's price pressure.
func ExampleScenario_DiurnalReclamation() {
	p := gfs.DefaultDiurnalProfile("A100")
	sc := gfs.NewScenario().DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour, p)
	fmt.Printf("peak %.2f trough %.2f bursts %d\n",
		p.Intensity(gfs.Time(0).Add(14*gfs.Hour)),
		p.Intensity(gfs.Time(0).Add(3*gfs.Hour)),
		sc.Len())
	// Output: peak 0.28 trough 0.03 bursts 24
}

// A custom profile: overnight-quiet and weekend-damped.
func ExampleDiurnalProfile() {
	p := gfs.DiurnalProfile{
		Curve: gfs.DiurnalCurve{PeakHour: 10, Width: 3, WeekendFactor: 0.3},
		Base:  0.01,
		Peak:  0.4,
	}
	fmt.Printf("%.3f %.3f\n",
		p.Intensity(gfs.Time(0).Add(10*gfs.Hour)),           // Monday peak
		p.Intensity(gfs.Time(0).Add(5*gfs.Day+10*gfs.Hour))) // Saturday peak
	// Output: 0.400 0.127
}

// Compose merges scenarios; Repeat replays one on a period. Both
// leave their inputs untouched.
func ExampleCompose() {
	weekday := gfs.NewScenario().ReclaimSpot(14*gfs.Hour, 0.3)
	storm := gfs.CorrelatedFailure(30*gfs.Hour, "zone-1/rack-2")
	sc := gfs.Compose(gfs.Repeat(weekday, gfs.Day, 5), storm)
	fmt.Println(sc.Len(), "actions")
	// Output: 6 actions
}

// RandomStorms draws a whole storm schedule from a seeded generator:
// correlated (optionally cascading) domain failures mixed with
// reclamation bursts. Same seed ⇒ identical schedule ⇒ identical
// simulation, at any RunBatch worker count.
func ExampleRandomStorms() {
	profile := gfs.StormProfile{
		Horizon:      2 * gfs.Day,
		MeanInterval: 6 * gfs.Hour,
		Domains:      []string{"zone-0/rack-0", "zone-1/rack-1"},
		FailureProb:  0.4,
		CascadeP:     0.3,
		RestoreAfter: 2 * gfs.Hour,
	}
	a := gfs.RandomStorms(rand.New(rand.NewSource(7)), profile)
	b := gfs.RandomStorms(rand.New(rand.NewSource(7)), profile)
	fmt.Println(a.Len() == b.Len() && a.Len() > 0)
	// Output: true
}

// Attaching a scenario to an engine and observing the storm through
// the typed event stream.
func ExampleWithScenario() {
	cluster := gfs.NewClusterWithTopology("A100", 16, 8, 2, 4)
	sc := gfs.Compose(
		gfs.NewScenario().DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour,
			gfs.DefaultDiurnalProfile("A100")),
		gfs.CascadingFailure(6*gfs.Hour, "zone-0/rack-0", 0.6, 10*gfs.Minute, 42),
	)
	log := &gfs.EventLog{}
	res := gfs.NewEngine(cluster,
		gfs.WithScenario(sc),
		gfs.WithObserver(log),
	).Run(chaosTrace(17))
	_ = res.Spot.EvictionRate       // storm-inflated
	_ = log.Filter(gfs.TaskEvicted) // causes: reclaimed / node-failure
	fmt.Println(len(log.Events) > 0)
	// Output: true
}

// A federation composes named member clusters. Each member is a full
// Engine — its own cluster, scheduler, quota and scenario — and the
// route policy admits every arriving task to one of them.
func ExampleNewFederation() {
	storm := gfs.CorrelatedFailure(6*gfs.Hour, "zone-0").
		RestoreDomain(12*gfs.Hour, "zone-0")
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(
			gfs.NewClusterWithTopology("A100", 16, 8, 2, 4),
			gfs.WithScenario(storm))},
		{Name: "east", Engine: gfs.NewEngine(
			gfs.NewClusterWithTopology("A100", 16, 8, 2, 4))},
	})
	res := fed.Run(chaosTrace(17))
	fmt.Println(res.Migrations > 0, res.Member("east").MigratedIn > 0)
	// Output: true true
}

// The federation event stream tags every member event with its member
// name and adds TaskMigrated / ClusterSaturated, all on one shared
// sequence — byte-identical across runs and RunBatch worker counts.
func ExampleWithFederationObserver() {
	storm := gfs.CorrelatedFailure(6*gfs.Hour, "zone-0").
		RestoreDomain(12*gfs.Hour, "zone-0")
	log := &gfs.EventLog{}
	gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(
			gfs.NewClusterWithTopology("A100", 16, 8, 2, 4),
			gfs.WithScenario(storm))},
		{Name: "east", Engine: gfs.NewEngine(
			gfs.NewClusterWithTopology("A100", 16, 8, 2, 4))},
	},
		gfs.WithFederationObserver(log),
		gfs.WithMigrationDelay(5*gfs.Minute),
	).Run(chaosTrace(17))
	m := log.Filter(gfs.TaskMigrated)[0]
	fmt.Println(m.Member, "→", m.Target)
	// Output: west → east
}

// Price-aware routing: spot tasks go to the cheapest member with
// room, HP tasks to the least-loaded. Member pricing defaults to
// DefaultPricing when nil.
func ExampleRouteCheapestSpot() {
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "h800", Engine: gfs.NewEngine(gfs.NewCluster("H800", 16, 8))},
		{Name: "a10", Engine: gfs.NewEngine(gfs.NewCluster("A10", 16, 8))},
	}, gfs.WithRoute(gfs.RouteCheapestSpot()))
	res := fed.Run(chaosTrace(5))
	spotOnCheap := 0
	for _, tk := range res.Member("a10").Result.Tasks {
		if tk.Type == gfs.Spot {
			spotOnCheap++
		}
	}
	fmt.Println(spotOnCheap > 0)
	// Output: true
}

// Forecast-aware routing reads each member's diurnal reclamation
// profile and steers spot tasks away from members heading into their
// reclamation peak.
func ExampleRouteForecastAware() {
	stormy := gfs.DefaultDiurnalProfile("A100")
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "stormy", Engine: gfs.NewEngine(gfs.NewCluster("A100", 16, 8)),
			Profile: &stormy},
		{Name: "calm", Engine: gfs.NewEngine(gfs.NewCluster("A100", 16, 8))},
	}, gfs.WithRoute(gfs.RouteForecastAware()))
	res := fed.Run(chaosTrace(5))
	fmt.Println(res.Member("calm").Routed > res.Member("stormy").Routed)
	// Output: true
}
