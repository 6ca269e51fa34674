package gfs_test

// The examples in this file are the runnable snippets behind
// docs/metrics.md — each cookbook entry compiles (and where it has an
// Output comment, runs) as part of the test suite, so the metrics
// cookbook cannot drift from the API.

import (
	"bytes"
	"fmt"
	"strings"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
)

// metricsTrace is the small deterministic workload the metrics
// examples run over.
func metricsTrace() []*gfs.Task {
	cfg := gfs.DefaultTraceConfig()
	cfg.Seed = 11
	cfg.Days = 1
	cfg.ClusterGPUs = 64
	cfg.HPLoad = 0.5
	cfg.SpotLoad = 0.3
	cfg.MaxDuration = 4 * gfs.Hour
	return gfs.GenerateTrace(cfg)
}

// RunReport is the one-call path: it attaches the full default
// collector set, runs, and returns the assembled Report. Its summary
// section carries the scalars Engine.Run returns.
func ExampleEngine_RunReport() {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
	).RunReport(metricsTrace())

	fmt.Println(rep.Summary.Spot.Count > 0)
	fmt.Println(rep.Summary.FinalQuota)
	// Output:
	// true
	// unlimited
}

// WithCollectors composes any subset of the built-ins (or custom
// collectors) onto an engine; RunReport then assembles only their
// sections.
func ExampleWithCollectors() {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
		gfs.WithQuota(gfs.StaticQuota(0.25)),
		gfs.WithCollectors(gfs.NewQuotaCollector(), gfs.NewEvictionCollector()),
	).RunReport(metricsTrace())
	fmt.Println(rep.Summary == nil, rep.Quota != nil, rep.Evictions != nil)
	// Output: true true true
}

// Per-organization metrics carry JCT and queue-wait percentiles —
// the per-org trajectories of the paper's §4.2 tables.
func ExampleOrgCollector() {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
	).RunReport(metricsTrace())
	for _, o := range rep.Orgs[:2] {
		ok := o.HP.JCTP50 <= o.HP.JCTP99 && o.Spot.QueueP50 <= o.Spot.QueueMax
		fmt.Println(o.Org, ok)
	}
	// Output:
	// OrgA true
	// OrgB true
}

// The JSONL export streams one self-describing record per line;
// byte-identical across RunBatch worker counts for deterministic
// runs.
func ExampleReport_WriteJSONL() {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
	).RunReport(metricsTrace())
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		panic(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	fmt.Println(strings.Contains(first, `"record":"report"`))
	// Output: true
}

// The Prometheus snapshot renders every section as labeled gauges.
func ExampleReport_WritePrometheus() {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
	).RunReport(metricsTrace())
	var buf bytes.Buffer
	if err := rep.WritePrometheus(&buf); err != nil {
		panic(err)
	}
	fmt.Println(strings.Contains(buf.String(), `gfs_tasks_total{class="hp"}`))
	// Output: true
}

// The cost ledger reproduces the paper's monthly-benefit accounting:
// allocation-rate gains over a baseline, priced per pool.
func ExampleNewCostCollector() {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
		gfs.WithCollectors(gfs.NewCostCollector(map[string]float64{"A100": 0.30})),
	).RunReport(metricsTrace())
	p := rep.Cost.Pools[0]
	fmt.Println(p.Model, p.BaselineRate, p.MonthlyBenefitUSD != 0)
	// Output: A100 0.3 true
}

// Custom collectors implement the four-method Collector interface
// and append their section to Report.Sections (countingCollector is
// defined in report_test.go: it counts events).
func ExampleCollector() {
	cc := &countingCollector{}
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
		gfs.WithCollectors(cc),
	).RunReport(metricsTrace())
	fmt.Println(rep.Sections[0].Name, rep.Sections[0].Value.(int) > 0)
	// Output: event-count true
}

// Federations report per member plus an aggregate over the whole
// tagged stream; a batch run carries the report in FedReport.
func ExampleWithFederationCollectors() {
	out := gfs.RunBatch([]gfs.BatchSpec{{
		Name: "federation",
		SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
			return gfs.NewFederation([]gfs.Member{
				{Name: "west", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
					gfs.WithScheduler(baselines.NewYARNCS()))},
				{Name: "east", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
					gfs.WithScheduler(baselines.NewYARNCS()))},
			}, gfs.WithFederationCollectors(nil)), metricsTrace()
		},
	}})[0]
	frep := out.FedReport
	agg := frep.Aggregate.Summary
	west, east := frep.Members[0].Report.Summary, frep.Members[1].Report.Summary
	fmt.Println(agg.HP.Finished == west.HP.Finished+east.HP.Finished)
	// Output: true
}
