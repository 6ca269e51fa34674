package gfs_test

import (
	"fmt"
	"math/rand"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
)

// topoCluster builds the standard test topology: 16 nodes, 2 zones ×
// 4 racks, 2 nodes per rack.
func topoCluster() *gfs.Cluster {
	cl := gfs.NewCluster("A100", 16, 8)
	cl.AssignDomains(2, 4)
	return cl
}

// stormScenario composes every scenario layer, one WithScenario each:
// diurnal reclamation, a cascading rack failure, and seeded random
// storms. Deterministic per call.
func stormScenario() []gfs.Option {
	return []gfs.Option{
		gfs.WithScenario(gfs.NewScenario().DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour,
			gfs.DefaultDiurnalProfile("A100")).
			CascadeFailure(6*gfs.Hour, "zone-0/rack-0", 0.7, 10*gfs.Minute, 5).
			RestoreDomain(12*gfs.Hour, "zone-0")),
		gfs.WithScenario(gfs.RandomStorms(rand.New(rand.NewSource(9)), gfs.StormProfile{
			Horizon:      24 * gfs.Hour,
			MeanInterval: 6 * gfs.Hour,
			Domains:      []string{"zone-1/rack-0", "zone-1/rack-2"},
			FailureProb:  0.5,
			CascadeP:     0.3,
			RestoreAfter: 2 * gfs.Hour,
		})),
	}
}

// TestCorrelatedFailureAtomic: FailDomain takes every node of the
// rack down at one timestamp, and evictions carry the node-failure
// cause.
func TestCorrelatedFailureAtomic(t *testing.T) {
	log := &sched.EventLog{}
	sc := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0/rack-0").
		RestoreDomain(12*gfs.Hour, "zone-0/rack-0")
	gfs.NewEngine(topoCluster(),
		gfs.WithScenario(sc),
		gfs.WithObserver(log),
	).Run(chaosTrace(17))

	downs := log.Filter(gfs.NodeDown)
	if len(downs) != 2 {
		t.Fatalf("rack-0 holds 2 nodes, got %d NodeDown events", len(downs))
	}
	for _, e := range downs {
		if e.At != gfs.Time(0).Add(6*gfs.Hour) {
			t.Fatalf("NodeDown at t=%d, want hour 6 (atomic)", e.At)
		}
		if e.Node.Domain != "zone-0/rack-0" {
			t.Fatalf("failed node in domain %q", e.Node.Domain)
		}
	}
	ups := log.Filter(gfs.NodeUp)
	if len(ups) != 2 {
		t.Fatalf("restore should bring both nodes back, got %d", len(ups))
	}
	for _, e := range log.Filter(gfs.TaskEvicted) {
		if e.At == gfs.Time(0).Add(6*gfs.Hour) && e.Cause != gfs.CauseNodeFailure {
			t.Fatalf("failure-time eviction has cause %v", e.Cause)
		}
	}
}

// TestDrainDomainSparesHP: retiring every node of a domain evicts
// only its spot tasks; HP pods run to completion on the cordoned
// nodes.
func TestDrainDomainSparesHP(t *testing.T) {
	cl := gfs.NewCluster("A100", 2, 8)
	cl.AssignDomains(1, 1)
	var ids []int
	for _, n := range cl.NodesInDomain("zone-0/rack-0") {
		ids = append(ids, n.ID)
	}
	tasks := []*gfs.Task{
		task.New(1, gfs.HP, 1, 8, 2*gfs.Hour),
		task.New(2, gfs.Spot, 1, 8, 2*gfs.Hour),
	}
	log := &sched.EventLog{}
	res := gfs.NewEngine(cl,
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithAutoscaler(&scriptedScaler{retireAt: gfs.Time(0).Add(30 * gfs.Minute), retire: ids}),
		gfs.WithObserver(log),
	).Run(tasks)
	if len(ids) != 2 {
		t.Fatalf("rack holds %d nodes, want 2", len(ids))
	}
	if res.HP.Evictions != 0 || res.UnfinishedHP != 0 {
		t.Fatal("domain drain must spare HP pods")
	}
	evs := log.Filter(gfs.TaskEvicted)
	if len(evs) != 1 || evs[0].Cause != gfs.CauseDrained {
		t.Fatalf("want one drained eviction, got %v", evs)
	}
}

// TestCascadeFailureDeterministic: the cascade's probability draws
// are seeded, so two identical runs produce byte-identical event
// logs, and the cascade actually spreads beyond the seed domain.
func TestCascadeFailureDeterministic(t *testing.T) {
	run := func() (*gfs.Result, *sched.EventLog) {
		log := &sched.EventLog{}
		sc := gfs.NewScenario().CascadeFailure(6*gfs.Hour, "zone-0/rack-0", 0.95, 10*gfs.Minute, 7)
		res := gfs.NewEngine(topoCluster(),
			gfs.WithScenario(sc),
			gfs.WithObserver(log),
		).Run(chaosTrace(17))
		return res, log
	}
	_, logA := run()
	_, logB := run()
	if logA.String() != logB.String() {
		t.Fatal("cascading runs must be byte-identical")
	}
	downDomains := map[string]bool{}
	for _, e := range logA.Filter(gfs.NodeDown) {
		downDomains[e.Node.Domain] = true
	}
	if !downDomains["zone-0/rack-0"] {
		t.Fatal("seed domain did not fail")
	}
	if len(downDomains) < 2 {
		t.Fatalf("cascade at p=0.95 should spread beyond the seed domain, hit %v", downDomains)
	}
	for d := range downDomains {
		if d == "zone-0/rack-0" {
			continue
		}
		if len(d) < 7 || d[:7] != "zone-0/" {
			t.Fatalf("cascade crossed zones to %s; should spread to siblings only", d)
		}
	}
}

// TestComposeAndRepeat: scenarios compose by repeating WithScenario
// — the run sees the same events as one scenario holding both
// scripts, and the inputs keep their own actions — and a script
// repeats by adding its actions once per period.
func TestComposeAndRepeat(t *testing.T) {
	run := func(opts ...gfs.Option) string {
		log := &sched.EventLog{}
		gfs.NewEngine(chaosCluster(), append(opts, gfs.WithObserver(log))...).Run(chaosTrace(17))
		return log.String()
	}
	a := gfs.NewScenario().FailDomain(gfs.Hour, rack(1))
	b := gfs.NewScenario()
	for day := gfs.Duration(0); day < 3; day++ {
		b.DiurnalReclamation(2*gfs.Hour+day*gfs.Day, 3*gfs.Hour+day*gfs.Day, gfs.Hour, burst(0.5))
	}
	composed := run(gfs.WithScenario(a), gfs.WithScenario(nil), gfs.WithScenario(b))
	one := run(gfs.WithScenario(gfs.NewScenario().FailDomain(gfs.Hour, rack(1)).
		DiurnalReclamation(2*gfs.Hour, 3*gfs.Hour, gfs.Hour, burst(0.5)).
		DiurnalReclamation(26*gfs.Hour, 27*gfs.Hour, gfs.Hour, burst(0.5)).
		DiurnalReclamation(50*gfs.Hour, 51*gfs.Hour, gfs.Hour, burst(0.5))))
	if composed != one {
		t.Fatal("repeated WithScenario must run as one scenario holding both scripts")
	}
	if a.Len() != 1 || b.Len() != 3 {
		t.Fatalf("inputs changed: %d and %d actions, want 1 and 3", a.Len(), b.Len())
	}
}

// TestStormDeterminismAcrossWorkers is the acceptance test for the
// scenario library: the same seed and scenario — including the
// random-storm generator and mid-run cascade draws — produce an
// identical event log and metrics under RunBatch at 1 and 8 workers.
func TestStormDeterminismAcrossWorkers(t *testing.T) {
	const runs = 4
	sweep := func(workers int) []string {
		logs := make([]*sched.EventLog, runs)
		var specs []gfs.BatchSpec
		for i := 0; i < runs; i++ {
			i := i
			logs[i] = &sched.EventLog{}
			specs = append(specs, gfs.BatchSpec{
				Name: fmt.Sprintf("seed-%d", i+1),
				Setup: func() (*gfs.Engine, []*gfs.Task) {
					eng := gfs.NewEngine(topoCluster(),
						append(stormScenario(), gfs.WithObserver(logs[i]))...)
					return eng, chaosTrace(int64(i + 1))
				},
			})
		}
		for _, br := range gfs.RunBatch(specs, gfs.WithWorkers(workers)) {
			if br.Err != nil {
				t.Fatalf("run %s: %v", br.Name, br.Err)
			}
		}
		out := make([]string, runs)
		for i, l := range logs {
			out[i] = l.String()
		}
		return out
	}
	serial := sweep(1)
	parallel := sweep(8)
	for i := range serial {
		if serial[i] == "" {
			t.Fatalf("run %d recorded no events", i)
		}
		if serial[i] != parallel[i] {
			t.Fatalf("run %d: event log differs between 1 and 8 workers", i)
		}
	}
}
