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

// A scenario is a timed script of cluster mutations: failure-domain
// outages and restores, and spot reclamation bursts. A single node
// fails as a rack of its own: AssignDomains(1, n) gives each of n
// nodes its own rack, so rack r holds node r.
func ExampleNewScenario() {
	cluster := gfs.NewCluster("A100", 16, 8)
	cluster.AssignDomains(1, 16)
	sc := gfs.NewScenario().
		FailDomain(6*gfs.Hour, "zone-0/rack-3").FailDomain(6*gfs.Hour, "zone-0/rack-4").
		RestoreDomain(12*gfs.Hour, "zone-0/rack-3").RestoreDomain(12*gfs.Hour, "zone-0/rack-4").
		DiurnalReclamation(20*gfs.Hour, 21*gfs.Hour, gfs.Hour, gfs.DiurnalProfile{Base: 0.5, Peak: 0.5})
	fmt.Println(len(cluster.Domains()), "racks,", sc.Len(), "actions")
	// Output: 16 racks, 5 actions
}

// Correlated failures target failure domains. AssignDomains lays a
// zone/rack topology over the cluster; FailDomain takes a whole rack
// down atomically.
func ExampleScenario_FailDomain() {
	cluster := gfs.NewCluster("A100", 16, 8)
	cluster.AssignDomains(2, 4)
	sc := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0/rack-0").
		RestoreDomain(9*gfs.Hour, "zone-0/rack-0")
	fmt.Println(len(cluster.Domains()), "domains,", sc.Len(), "actions")
	// Output: 8 domains, 2 actions
}

// Cascading failures spread to sibling domains with probability p,
// halving per hop. The seed makes every run byte-identical.
func ExampleScenario_CascadeFailure() {
	sc := gfs.NewScenario().CascadeFailure(6*gfs.Hour, "zone-0/rack-0", 0.6, 10*gfs.Minute, 42).
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

// Scenarios compose by repeating WithScenario: the run sees every
// script's actions, merged by time. A flat profile (Base = Peak)
// makes DiurnalReclamation a fixed-size burst once per interval.
func ExampleWithScenario_compose() {
	weekday := gfs.NewScenario().DiurnalReclamation(14*gfs.Hour, 5*gfs.Day, gfs.Day,
		gfs.DiurnalProfile{Base: 0.3, Peak: 0.3}) // 14:00 on days 0-4
	storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-1/rack-2")
	cluster := gfs.NewCluster("A100", 16, 8)
	cluster.AssignDomains(2, 4)
	down := 0
	gfs.NewEngine(cluster,
		gfs.WithScenario(weekday),
		gfs.WithScenario(storm),
		gfs.WithObserver(gfs.ObserverFunc(func(e gfs.Event) {
			if e.Kind == gfs.NodeDown {
				down++
			}
		})),
	).Run(chaosTrace(17))
	fmt.Println(weekday.Len()+storm.Len(), "actions,", down, "nodes down")
	// Output: 6 actions, 2 nodes down
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
	cluster := gfs.NewCluster("A100", 16, 8)
	cluster.AssignDomains(2, 4)
	sc := gfs.NewScenario().
		DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour, gfs.DefaultDiurnalProfile("A100")).
		CascadeFailure(6*gfs.Hour, "zone-0/rack-0", 0.6, 10*gfs.Minute, 42)
	causes := map[gfs.EvictCause]int{}
	res := gfs.NewEngine(cluster,
		gfs.WithScenario(sc),
		gfs.WithObserver(gfs.ObserverFunc(func(e gfs.Event) {
			if e.Kind == gfs.TaskEvicted {
				causes[e.Cause]++ // reclaimed / node-failure / preempted
			}
		})),
	).Run(chaosTrace(17))
	_ = res.Spot.EvictionRate // storm-inflated
	fmt.Println(causes[gfs.CauseReclaimed] > 0)
	// Output: true
}

// A federation composes named member clusters. Each member is a full
// Engine — its own cluster, scheduler, quota and scenario — and the
// route policy admits every arriving task to one of them.
func ExampleNewFederation() {
	storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
		RestoreDomain(12*gfs.Hour, "zone-0")
	west, east := gfs.NewCluster("A100", 16, 8), gfs.NewCluster("A100", 16, 8)
	west.AssignDomains(2, 4)
	east.AssignDomains(2, 4)
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(west, gfs.WithScenario(storm))},
		{Name: "east", Engine: gfs.NewEngine(east)},
	})
	res := fed.Run(chaosTrace(17))
	fmt.Println(res.Migrations > 0, res.Member("east").MigratedIn > 0)
	// Output: true true
}

// The federation event stream tags every member event with its member
// name and adds TaskMigrated / ClusterSaturated, all on one shared
// sequence — byte-identical across runs and RunBatch worker counts.
func ExampleWithFederationObserver() {
	storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
		RestoreDomain(12*gfs.Hour, "zone-0")
	west, east := gfs.NewCluster("A100", 16, 8), gfs.NewCluster("A100", 16, 8)
	west.AssignDomains(2, 4)
	east.AssignDomains(2, 4)
	var migrations []gfs.Event
	gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(west, gfs.WithScenario(storm))},
		{Name: "east", Engine: gfs.NewEngine(east)},
	},
		gfs.WithFederationObserver(gfs.ObserverFunc(func(e gfs.Event) {
			if e.Kind == gfs.TaskMigrated {
				migrations = append(migrations, e)
			}
		})),
		gfs.WithMigrationDelay(5*gfs.Minute),
	).Run(chaosTrace(17))
	m := migrations[0]
	fmt.Println(m.Member, "→", m.Target)
	// Output: west → east
}

// Price-aware routing: spot tasks go to the cheapest member with
// room, HP tasks to the least-loaded. Members price their GPU models
// from a built-in on-demand list.
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
