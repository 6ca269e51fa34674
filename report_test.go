package gfs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// reportScenario is the capacity-churn scenario (node kills,
// reclamation, restores) on chaosCluster that the report equivalence
// checks run under, so every eviction cause a scenario can raise
// reaches the collectors.
func reportScenario() *gfs.Scenario {
	return gfs.NewScenario().
		FailDomain(4*gfs.Hour, rack(3)).FailDomain(4*gfs.Hour, rack(4)).
		DiurnalReclamation(8*gfs.Hour, 9*gfs.Hour, gfs.Hour, burst(0.4)).
		RestoreDomain(10*gfs.Hour, rack(3)).RestoreDomain(10*gfs.Hour, rack(4))
}

// TestReportSummaryMatchesResult: the summary collector must rebuild
// every legacy Result scalar from the event spine alone — its
// section and Engine.Run's Result must agree exactly, across
// schedulers, quota policies and a capacity-churn scenario.
func TestReportSummaryMatchesResult(t *testing.T) {
	cases := []struct {
		name string
		opts func() []gfs.Option
	}{
		{"yarn-unlimited", func() []gfs.Option {
			return []gfs.Option{gfs.WithScheduler(baselines.NewYARNCS())}
		}},
		{"firstfit-static-quota", func() []gfs.Option {
			return []gfs.Option{
				gfs.WithScheduler(gfs.NewStaticFirstFit()),
				gfs.WithQuota(gfs.StaticQuota(0.25)),
			}
		}},
		{"gfs-default", func() []gfs.Option { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append(tc.opts(), gfs.WithScenario(reportScenario()))
			want := gfs.NewEngine(chaosCluster(), opts...).Run(chaosTrace(17))

			opts = append(tc.opts(), gfs.WithScenario(reportScenario()))
			rep := gfs.NewEngine(chaosCluster(), opts...).RunReport(chaosTrace(17))
			got := rep.Summary
			if got == nil {
				t.Fatal("report without summary section")
			}
			if got.Scheduler != want.SchedulerName {
				t.Errorf("scheduler %q != %q", got.Scheduler, want.SchedulerName)
			}
			for _, c := range []struct {
				class string
				got   gfs.ClassMetrics
				want  gfs.TaskMetrics
			}{{"HP", got.HP, want.HP}, {"Spot", got.Spot, want.Spot}} {
				g, w := c.got, c.want
				if g.Count != w.Count || g.JCTMean != w.JCT || g.JCTP99 != w.JCTP99 ||
					g.QueueMean != w.JQT || g.QueueMax != w.MaxJQT ||
					g.EvictionRate != w.EvictionRate || g.Evictions != w.Evictions || g.Runs != w.Runs {
					t.Errorf("%s metrics diverged:\n got  %+v\n want %+v", c.class, g, w)
				}
			}
			if got.AllocationRate != want.AllocationRate {
				t.Errorf("allocation rate %v != %v", got.AllocationRate, want.AllocationRate)
			}
			if got.WastedGPUSeconds != want.WastedGPUSeconds {
				t.Errorf("waste %v != %v", got.WastedGPUSeconds, want.WastedGPUSeconds)
			}
			if got.HP.Unfinished != want.UnfinishedHP || got.Spot.Unfinished != want.UnfinishedSpot {
				t.Errorf("unfinished %d/%d != %d/%d",
					got.HP.Unfinished, got.Spot.Unfinished, want.UnfinishedHP, want.UnfinishedSpot)
			}
			if got.End != want.End {
				t.Errorf("end %d != %d", got.End, want.End)
			}
			if float64(got.FinalQuota) != want.FinalQuota &&
				!(math.IsInf(float64(got.FinalQuota), 1) && math.IsInf(want.FinalQuota, 1)) {
				t.Errorf("final quota %v != %v", got.FinalQuota, want.FinalQuota)
			}
		})
	}
}

// TestReportSectionsPopulated: every default collector contributes
// its section, with internally consistent numbers.
func TestReportSectionsPopulated(t *testing.T) {
	rep := gfs.NewEngine(chaosCluster(),
		gfs.WithScheduler(gfs.NewStaticFirstFit()),
		gfs.WithQuota(gfs.StaticQuota(0.25)),
		gfs.WithScenario(reportScenario()),
	).RunReport(chaosTrace(17))

	if rep.Summary == nil || rep.Evictions == nil || rep.Quota == nil || rep.Cost == nil {
		t.Fatalf("missing sections: %+v", rep)
	}
	if len(rep.Orgs) == 0 {
		t.Fatal("no org sections")
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("empty allocation timeline")
	}
	if got := rep.Evictions.Total; got != rep.Summary.HP.Evictions+rep.Summary.Spot.Evictions {
		t.Errorf("eviction breakdown total %d != summary %d",
			got, rep.Summary.HP.Evictions+rep.Summary.Spot.Evictions)
	}
	// The scenario reclaims spot capacity and kills nodes, so causes
	// beyond scheduler preemption must appear.
	if rep.Evictions.Spot.Reclaimed == 0 {
		t.Error("reclamation scenario produced no reclaimed evictions")
	}
	if rep.Evictions.HP.NodeFailure+rep.Evictions.Spot.NodeFailure == 0 {
		t.Error("node kills produced no node-failure evictions")
	}
	var orgHP, orgSpot, orgEvict int
	for _, o := range rep.Orgs {
		orgHP += o.HP.Count
		orgSpot += o.Spot.Count
		e := o.Evictions
		orgEvict += e.Preempted + e.NodeFailure + e.Reclaimed + e.Drained
	}
	if orgHP != rep.Summary.HP.Count || orgSpot != rep.Summary.Spot.Count {
		t.Errorf("org task counts %d/%d != summary %d/%d",
			orgHP, orgSpot, rep.Summary.HP.Count, rep.Summary.Spot.Count)
	}
	if orgEvict != rep.Evictions.Total {
		t.Errorf("org evictions %d != breakdown total %d", orgEvict, rep.Evictions.Total)
	}
	if len(rep.Quota.Samples) == 0 {
		t.Fatal("no quota samples under a static quota policy")
	}
	// Percentile ordering within every class.
	for _, m := range []gfs.ClassMetrics{rep.Summary.HP, rep.Summary.Spot} {
		if m.JCTP50 > m.JCTP95 || m.JCTP95 > m.JCTP99 {
			t.Errorf("JCT percentiles out of order: %+v", m)
		}
		if m.QueueP50 > m.QueueP95 || m.QueueP95 > m.QueueP99 || m.QueueP99 > m.QueueMax {
			t.Errorf("queue percentiles out of order: %+v", m)
		}
	}
}

// TestReportEtaTrajectory: under the full GFS stack the quota
// collector must capture the η feedback trajectory.
func TestReportEtaTrajectory(t *testing.T) {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 16, 8)).RunReport(chaosTrace(17))
	if rep.Quota == nil || len(rep.Quota.Samples) == 0 {
		t.Fatal("no quota trajectory under the GFS stack")
	}
	for _, s := range rep.Quota.Samples {
		if s.Eta <= 0 {
			t.Fatalf("quota sample without η: %+v", s)
		}
	}
	if rep.Quota.FinalEta <= 0 {
		t.Fatalf("missing final η: %+v", rep.Quota)
	}
}

// TestUnlimitedQuotaJSON is the regression test for the +Inf
// FinalQuota bug: a run without a quota policy has an unlimited spot
// quota, which used to be unencodable (json.Marshal rejects +Inf).
// Reports must render it as "unlimited" in JSON and CSV and stay
// fully marshalable.
func TestUnlimitedQuotaJSON(t *testing.T) {
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
		gfs.WithQuota(sched.UnlimitedQuota{}),
	).RunReport(chaosTrace(5))

	if !math.IsInf(float64(rep.Summary.FinalQuota), 1) {
		t.Fatalf("expected unlimited final quota, got %v", rep.Summary.FinalQuota)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report with unlimited quota must marshal: %v", err)
	}
	if !bytes.Contains(data, []byte(`"unlimited"`)) {
		t.Fatal("marshaled report does not render the unlimited quota")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatalf("JSONL export with unlimited quota: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"unlimited"`)) {
		t.Fatal("JSONL export does not render the unlimited quota")
	}
	buf.Reset()
	if err := rep.WriteQuotaCSV(&buf); err != nil {
		t.Fatalf("quota CSV export: %v", err)
	}
	// Round-trip the QuotaValue forms.
	var q gfs.QuotaValue
	if err := json.Unmarshal([]byte(`"unlimited"`), &q); err != nil || !math.IsInf(float64(q), 1) {
		t.Fatalf("unmarshal unlimited: %v %v", q, err)
	}
	if err := json.Unmarshal([]byte(`128.5`), &q); err != nil || float64(q) != 128.5 {
		t.Fatalf("unmarshal number: %v %v", q, err)
	}
}

// TestReportExportsDeterministic: two identical runs must export
// byte-identical JSONL, CSV and Prometheus snapshots.
func TestReportExportsDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		rep := gfs.NewEngine(chaosCluster(),
			gfs.WithScheduler(gfs.NewStaticFirstFit()),
			gfs.WithQuota(gfs.StaticQuota(0.25)),
			gfs.WithScenario(reportScenario()),
		).RunReport(chaosTrace(23))
		var j, c, p bytes.Buffer
		if err := rep.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := rep.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String(), p.String()
	}
	j1, c1, p1 := render()
	j2, c2, p2 := render()
	if j1 != j2 {
		t.Error("JSONL export not deterministic")
	}
	if c1 != c2 {
		t.Error("CSV export not deterministic")
	}
	if p1 != p2 {
		t.Error("Prometheus export not deterministic")
	}
	if !strings.Contains(p1, "# TYPE gfs_allocation_rate gauge") {
		t.Error("Prometheus snapshot missing allocation rate family")
	}
	if !strings.Contains(j1, `"record":"summary"`) {
		t.Error("JSONL missing summary record")
	}
}

// TestCostLedgerReproducesPaperAccounting: the cost collector's pool
// arithmetic must equal internal/pricing.MonthlyBenefit — the exact
// Fig. 9 formula — for the same deltas, and the ledger must price a
// run's allocation against configured baselines.
func TestCostLedgerReproducesPaperAccounting(t *testing.T) {
	rates := map[string]float64{"A100": 0.5}
	rep := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
		gfs.WithCollectors(gfs.NewCostCollector(rates)),
	).RunReport(chaosTrace(17))
	c := rep.Cost
	if c == nil || len(c.Pools) != 1 {
		t.Fatalf("cost ledger missing: %+v", c)
	}
	pool := c.Pools[0]
	if pool.Model != "A100" || pool.BaselineRate != 0.5 {
		t.Fatalf("pool misconfigured: %+v", pool)
	}
	if pool.Rate <= 0 || pool.Rate > 1 {
		t.Fatalf("implausible achieved rate %v", pool.Rate)
	}
	want := pricing.MonthlyBenefit([]pricing.PoolDelta{{
		Model: "A100", GPUs: int(pool.GPUs), RateBefore: pool.BaselineRate, RateAfter: pool.Rate,
	}})
	if diff := math.Abs(c.MonthlyBenefitUSD - want); diff > 1e-6*math.Abs(want) {
		t.Fatalf("ledger %v != pricing.MonthlyBenefit %v", c.MonthlyBenefitUSD, want)
	}
}

// TestFederationReport: a federated run produces per-member reports
// plus an aggregate whose task counts cover the whole workload
// exactly once.
func TestFederationReport(t *testing.T) {
	storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
		RestoreDomain(12*gfs.Hour, "zone-0")
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(
			topoCluster(),
			gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithScenario(storm))},
		{Name: "east", Engine: gfs.NewEngine(
			topoCluster(),
			gfs.WithScheduler(baselines.NewYARNCS()))},
	}, gfs.WithFederationCollectors(nil))
	tasks := chaosTrace(17)
	br := gfs.RunBatch([]gfs.BatchSpec{{Name: "fed", SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
		return fed, tasks
	}}})[0]
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	res, frep := br.Fed, br.FedReport
	if frep == nil || frep.Aggregate == nil || len(frep.Members) != 2 {
		t.Fatalf("federation report malformed: %+v", frep)
	}
	if frep.Migrations != res.Migrations || frep.Saturations != res.Saturations {
		t.Errorf("federation counters %d/%d != result %d/%d",
			frep.Migrations, frep.Saturations, res.Migrations, res.Saturations)
	}
	agg := frep.Aggregate.Summary
	if got := agg.HP.Count + agg.Spot.Count; got != len(tasks) {
		t.Errorf("aggregate saw %d tasks, trace has %d", got, len(tasks))
	}
	if agg.HP.Finished+agg.Spot.Finished == 0 {
		t.Fatal("aggregate recorded no completions")
	}
	west := frep.Members[0].Report
	if frep.Members[0].Name != "west" || west.Summary == nil {
		t.Fatal("missing west member report")
	}
	if west.Summary.Scheduler != "YARN-CS" {
		t.Errorf("member scheduler %q", west.Summary.Scheduler)
	}
	// Finished tasks land on exactly one member.
	memberFinished := 0
	for _, m := range frep.Members {
		memberFinished += m.Report.Summary.HP.Finished + m.Report.Summary.Spot.Finished
	}
	if memberFinished != agg.HP.Finished+agg.Spot.Finished {
		t.Errorf("member finished sum %d != aggregate %d",
			memberFinished, agg.HP.Finished+agg.Spot.Finished)
	}
	var buf bytes.Buffer
	if err := frep.WriteJSONL(&buf); err != nil {
		t.Fatalf("federation JSONL: %v", err)
	}
	if !strings.Contains(buf.String(), `"member":"west"`) {
		t.Error("federation JSONL missing member tag")
	}
	buf.Reset()
	if err := frep.WritePrometheus(&buf); err != nil {
		t.Fatalf("federation prom: %v", err)
	}
	if !strings.Contains(buf.String(), `member="east"`) {
		t.Error("federation prom missing member label")
	}
}

// TestFederationCollectorOptionOrder: collector realization is
// deferred to run start, so WithRoute after WithFederationCollectors
// still labels the report with the final route, and repeating the
// collectors option replaces the factory instead of double-counting
// every event.
func TestFederationCollectorOptionOrder(t *testing.T) {
	build := func(opts ...gfs.FederationOption) *gfs.Federation {
		return gfs.NewFederation([]gfs.Member{
			{Name: "west", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
				gfs.WithScheduler(baselines.NewYARNCS()))},
			{Name: "east", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
				gfs.WithScheduler(baselines.NewYARNCS()))},
		}, opts...)
	}
	var specs []gfs.BatchSpec
	for _, opts := range [][]gfs.FederationOption{
		{gfs.WithFederationCollectors(nil), gfs.WithRoute(gfs.RouteCheapestSpot())},
		{gfs.WithFederationCollectors(nil)},
		{gfs.WithFederationCollectors(nil), gfs.WithFederationCollectors(nil)},
	} {
		specs = append(specs, gfs.BatchSpec{Name: "fed", SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
			return build(opts...), chaosTrace(5)
		}})
	}
	out := gfs.RunBatch(specs)
	for _, br := range out {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}
	if got := out[0].FedReport.Aggregate.Scheduler; got != "federation(cheapest-spot)" {
		t.Fatalf("aggregate labeled %q, want the final route", got)
	}
	a, b := out[1].FedReport.Aggregate.Summary, out[2].FedReport.Aggregate.Summary
	if a.HP.Count != b.HP.Count || a.HP.GPUSeconds != b.HP.GPUSeconds ||
		a.Spot.Evictions != b.Spot.Evictions {
		t.Fatalf("repeated collectors option changed the report:\n once  %+v\n twice %+v", a, b)
	}
}

// federationReplayReportBatch renders the acceptance-gate workload:
// federated trace replay through RunBatch with collectors attached,
// every report exported as JSONL, at the given worker count.
func federationReplayReportBatch(t *testing.T, traces map[int64][]byte, workers int) string {
	t.Helper()
	var specs []gfs.BatchSpec
	for _, seed := range []int64{5, 17} {
		seed := seed
		specs = append(specs, gfs.BatchSpec{
			Name: fmt.Sprintf("fed-replay-%d", seed),
			SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
				storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
					RestoreDomain(12*gfs.Hour, "zone-0")
				fed := gfs.NewFederation([]gfs.Member{
					{Name: "west", Engine: gfs.NewEngine(
						topoCluster(),
						gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithScenario(storm))},
					{Name: "east", Engine: gfs.NewEngine(
						topoCluster(),
						gfs.WithScheduler(baselines.NewYARNCS()))},
				},
					gfs.WithFederationCollectors(nil),
					gfs.WithFederationTraceSource(openBytes(t, traces[seed])))
				return fed, nil
			},
		})
	}
	results := gfs.RunBatch(specs, gfs.WithWorkers(workers))
	var b bytes.Buffer
	for _, br := range results {
		if br.Err != nil {
			t.Fatalf("workers=%d %s: %v", workers, br.Name, br.Err)
		}
		if br.FedReport == nil {
			t.Fatalf("workers=%d %s: no federation report", workers, br.Name)
		}
		fmt.Fprintf(&b, "## %s\n", br.Name)
		if err := br.FedReport.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestReportDeterminismAcrossWorkers is the acceptance gate: a
// federated trace replay's Report exports byte-identical JSONL at 1,
// 4 and 8 RunBatch workers.
func TestReportDeterminismAcrossWorkers(t *testing.T) {
	traces := map[int64][]byte{}
	for _, seed := range []int64{5, 17} {
		traces[seed] = encodedChaosTrace(t, seed)
	}
	base := federationReplayReportBatch(t, traces, 1)
	if !strings.Contains(base, `"record":"summary"`) {
		t.Fatal("batch reports missing summary records")
	}
	for _, workers := range []int{4, 8} {
		if got := federationReplayReportBatch(t, traces, workers); got != base {
			t.Fatalf("report JSONL diverged at %d workers", workers)
		}
	}
}

// TestBatchEngineReports: engine specs with collectors surface their
// reports on BatchResult, byte-identically across worker counts.
func TestBatchEngineReports(t *testing.T) {
	run := func(workers int) string {
		var specs []gfs.BatchSpec
		for _, seed := range []int64{5, 17, 23} {
			seed := seed
			specs = append(specs, gfs.BatchSpec{
				Name: fmt.Sprintf("seed-%d", seed),
				Setup: func() (*gfs.Engine, []*gfs.Task) {
					return gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
						gfs.WithScheduler(baselines.NewYARNCS()),
						gfs.WithCollectors(gfs.DefaultCollectors()...)), chaosTrace(seed)
				},
			})
		}
		var b bytes.Buffer
		for _, br := range gfs.RunBatch(specs, gfs.WithWorkers(workers)) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			if br.Report == nil {
				t.Fatalf("%s: no report", br.Name)
			}
			if err := br.Report.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	base := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != base {
			t.Fatalf("engine batch reports diverged at %d workers", workers)
		}
	}
}

// TestReplayReportMatchesEagerReport: streaming a trace through a
// RunBatch replay with collectors attached yields the identical report
// to RunReport over the equivalent task slice.
func TestReplayReportMatchesEagerReport(t *testing.T) {
	eager := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
		gfs.WithScheduler(baselines.NewYARNCS())).RunReport(chaosTrace(17))
	br := gfs.RunBatch([]gfs.BatchSpec{{Name: "replay", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
			gfs.WithScheduler(baselines.NewYARNCS()),
			gfs.WithCollectors(gfs.DefaultCollectors()...),
			gfs.WithTraceSource(openBytes(t, encodedChaosTrace(t, 17))),
		), nil
	}}})[0]
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	streamed := br.Report
	var a, b bytes.Buffer
	if err := eager.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := streamed.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("streamed replay report diverged from eager report")
	}
}

// TestZeroCollectorEngineHasNoReport: engines without collectors run
// the nil-cost path and report nothing.
func TestZeroCollectorEngineHasNoReport(t *testing.T) {
	br := gfs.RunBatch([]gfs.BatchSpec{{Name: "bare", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(gfs.NewCluster("A100", 4, 8), gfs.WithScheduler(baselines.NewYARNCS())), chaosTrace(5)[:20]
	}}})[0]
	if br.Err != nil || br.Result == nil {
		t.Fatalf("run failed: %v", br.Err)
	}
	if br.Report != nil {
		t.Fatalf("zero-collector engine produced a report: %+v", br.Report)
	}
}

// TestCustomCollectorSection: a user collector's section lands in
// the report and its JSONL export.
func TestCustomCollectorSection(t *testing.T) {
	cc := &countingCollector{}
	rep := gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
		gfs.WithScheduler(baselines.NewYARNCS()),
		gfs.WithCollectors(cc),
	).RunReport(chaosTrace(5))
	if len(rep.Sections) != 1 || rep.Sections[0].Name != "event-count" {
		t.Fatalf("custom section missing: %+v", rep.Sections)
	}
	if rep.Sections[0].Value.(int) == 0 {
		t.Fatal("custom collector saw no events")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"record":"section"`) {
		t.Fatal("JSONL missing custom section record")
	}
}

// countingCollector is a minimal custom Collector: it counts events.
type countingCollector struct{ n int }

func (c *countingCollector) Name() string      { return "event-count" }
func (c *countingCollector) Begin(gfs.RunMeta) { c.n = 0 }
func (c *countingCollector) OnEvent(gfs.Event) { c.n++ }
func (c *countingCollector) Finish(r *gfs.Report) {
	r.Sections = append(r.Sections, gfs.CustomSection{Name: c.Name(), Value: c.n})
}
