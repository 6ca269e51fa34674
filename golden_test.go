package gfs_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// The golden corpus pins the simulator's event stream byte-for-byte:
// each case below renders its full EventLog against a fixture under
// testdata/golden/. Any core change that shifts even one event —
// ordering, timing, numbering, or formatting — fails here before it
// can silently alter results. Regenerate intentionally with
//
//	go test -run TestGoldenCorpus . -update
//
// and review the fixture diff like any other code change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures from the current engine")

// goldenTraceCfg is the shared small-scale workload: one day against
// 128 GPUs keeps each fixture a few thousand lines while still
// exercising queuing, preemption and quota dynamics.
func goldenTraceCfg(seed int64) gfs.TraceConfig {
	cfg := gfs.DefaultTraceConfig()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 128
	cfg.Orgs = []string{"OrgA", "OrgB", "OrgC"}
	cfg.MaxDuration = 12 * gfs.Hour
	return cfg
}

// goldenStorm composes the scenario layers the corpus hardens, one
// WithScenario each: diurnal reclamation, a cascading rack failure
// with restore, and seeded random storms. Deterministic per call.
func goldenStorm(seed int64) []gfs.Option {
	return []gfs.Option{
		gfs.WithScenario(gfs.NewScenario().DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour,
			gfs.DefaultDiurnalProfile("A100"))),
		gfs.WithScenario(gfs.NewScenario().CascadeFailure(6*gfs.Hour, "zone-0/rack-0", 0.7, 10*gfs.Minute, seed).
			RestoreDomain(12*gfs.Hour, "zone-0")),
		gfs.WithScenario(gfs.RandomStorms(rand.New(rand.NewSource(seed)), gfs.StormProfile{
			Horizon:      24 * gfs.Hour,
			MeanInterval: 6 * gfs.Hour,
			Domains:      []string{"zone-1/rack-0", "zone-1/rack-2"},
			FailureProb:  0.5,
			CascadeP:     0.3,
			RestoreAfter: 2 * gfs.Hour,
		})),
	}
}

// goldenEngine builds one golden case's engine, fresh per call, with
// log observing it; extra options (a trace source, say) apply last.
type goldenEngine func(log *sched.EventLog, extra ...gfs.Option) *gfs.Engine

// runGolden runs mk's engine over the seed's golden trace and returns
// the rendered event log.
func runGolden(mk goldenEngine, seed int64) string {
	log := &sched.EventLog{}
	mk(log).Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// schedulerOpts runs s under a static half quota; nil keeps the
// full GFS stack.
func schedulerOpts(s gfs.Scheduler) []gfs.Option {
	if s == nil {
		return nil
	}
	return []gfs.Option{gfs.WithScheduler(s), gfs.WithQuota(gfs.StaticQuota(0.5))}
}

// engineOf runs scheduler s over a fresh 16-node cluster.
func engineOf(s gfs.Scheduler) goldenEngine {
	return func(log *sched.EventLog, extra ...gfs.Option) *gfs.Engine {
		opts := append([]gfs.Option{gfs.WithObserver(log)}, schedulerOpts(s)...)
		return gfs.NewEngine(gfs.NewCluster("A100", 16, 8), append(opts, extra...)...)
	}
}

// stormOf is engineOf over the full scenario stack on the standard
// 2-zone topology.
func stormOf(s gfs.Scheduler, seed int64) goldenEngine {
	return func(log *sched.EventLog, extra ...gfs.Option) *gfs.Engine {
		opts := append(append([]gfs.Option{gfs.WithObserver(log)}, goldenStorm(seed)...), schedulerOpts(s)...)
		cl := gfs.NewCluster("A100", 16, 8)
		cl.AssignDomains(2, 4)
		return gfs.NewEngine(cl, append(opts, extra...)...)
	}
}

// federationCase runs a two-member federation — a storm over the
// west member, spillover migration to the east — and returns the
// member-tagged federation log.
func federationCase(seed int64) string {
	log := &sched.EventLog{}
	west, east := gfs.NewCluster("A100", 8, 8), gfs.NewCluster("A100", 8, 8)
	west.AssignDomains(2, 2)
	east.AssignDomains(2, 2)
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(west, goldenStorm(seed)...)},
		{Name: "east", Engine: gfs.NewEngine(east)},
	},
		gfs.WithRoute(gfs.RouteLeastLoaded()),
		gfs.WithSpillover(sched.SpillLeastLoaded{}),
		gfs.WithMigrationDelay(10*gfs.Minute),
		gfs.WithFederationObserver(log),
	)
	fed.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// replayCSVCase round-trips the trace through the CSV codec and
// replays it as a stream, covering the parser and the constant-memory
// replay path in one fixture.
func replayCSVCase(s gfs.Scheduler, seed int64) string {
	var buf bytes.Buffer
	if err := writeTraceCSV(&buf, gfs.GenerateTrace(goldenTraceCfg(seed))); err != nil {
		panic(err)
	}
	src, err := gfs.OpenTraceReader(&buf, gfs.TraceFormatCSV)
	if err != nil {
		panic(err)
	}
	log := &sched.EventLog{}
	if _, err := replay(engineOf(s)(log, gfs.WithTraceSource(src))); err != nil {
		panic(err)
	}
	return log.String()
}

// replayStormCase streams the trace through a scenario run, covering
// the scenario × streamed-replay interplay.
func replayStormCase(s gfs.Scheduler, seed int64) string {
	log := &sched.EventLog{}
	src := trace.SliceSource(gfs.GenerateTrace(goldenTraceCfg(seed)))
	if _, err := replay(stormOf(s, seed)(log, gfs.WithTraceSource(src))); err != nil {
		panic(err)
	}
	return log.String()
}

// autoscalePolicy is the built-in capacity policy the autoscale cases
// run, fresh per call — policies keep per-run state.
func autoscalePolicy(mode gfs.AutoscaleMode) *gfs.AutoscalePolicy {
	return &gfs.AutoscalePolicy{
		Mode:     mode,
		MaxNodes: 8,
		Step:     2,
		Curve:    &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
	}
}

// autoscaleCase runs the full GFS stack with the built-in capacity
// policy over an under-provisioned cluster, so the workload forces
// mid-run provisions and idle retirements onto the event spine.
func autoscaleCase(mode gfs.AutoscaleMode, seed int64) string {
	log := &sched.EventLog{}
	eng := gfs.NewEngine(gfs.NewCluster("A100", 10, 8),
		gfs.WithAutoscaler(autoscalePolicy(mode)), gfs.WithObserver(log))
	eng.Run(gfs.GenerateTrace(goldenTraceCfg(seed)))
	return log.String()
}

// autoscaleStormOf layers the full storm stack over an autoscaled
// run: correlated failures, diurnal reclamation and capacity churn
// interleaved on one spine.
func autoscaleStormOf(seed int64) goldenEngine {
	return func(log *sched.EventLog, extra ...gfs.Option) *gfs.Engine {
		opts := append([]gfs.Option{gfs.WithAutoscaler(autoscalePolicy(gfs.AutoscalePredictive))},
			append(goldenStorm(seed), gfs.WithObserver(log))...)
		cl := gfs.NewCluster("A100", 12, 8)
		cl.AssignDomains(2, 4)
		return gfs.NewEngine(cl, append(opts, extra...)...)
	}
}

// goldenCases is the scenario × scheduler × seed matrix. Names are
// fixture file names; keep them stable — renames orphan fixtures.
var goldenCases = []struct {
	name string
	run  func() string
}{
	{"engine_yarn_seed1", func() string { return runGolden(engineOf(baselines.NewYARNCS()), 1) }},
	{"engine_gfs_seed2", func() string { return runGolden(engineOf(nil), 2) }}, // full GFS stack (PTS + SQA)
	{"engine_fgd_seed3", func() string { return runGolden(engineOf(baselines.NewFGD()), 3) }},
	{"engine_chronus_seed4", func() string { return runGolden(engineOf(baselines.NewChronus()), 4) }},
	{"engine_lyra_seed5", func() string { return runGolden(engineOf(baselines.NewLyra()), 5) }},
	{"engine_firstfit_seed6", func() string { return runGolden(engineOf(gfs.NewStaticFirstFit()), 6) }},
	{"storm_yarn_seed7", func() string { return runGolden(stormOf(baselines.NewYARNCS(), 7), 7) }},
	{"storm_gfs_seed8", func() string { return runGolden(stormOf(nil, 8), 8) }},
	{"federation_seed9", func() string { return federationCase(9) }},
	{"replay_csv_yarn_seed1", func() string { return replayCSVCase(baselines.NewYARNCS(), 1) }},
	{"replay_storm_yarn_seed7", func() string { return replayStormCase(baselines.NewYARNCS(), 7) }},
	{"autoscale_predictive_seed12", func() string { return autoscaleCase(gfs.AutoscalePredictive, 12) }},
	{"autoscale_reactive_seed13", func() string { return autoscaleCase(gfs.AutoscaleReactive, 13) }},
	{"autoscale_storm_seed14", func() string { return runGolden(autoscaleStormOf(14), 14) }},
}

// TestGoldenCorpus fails on any byte drift between the current
// engine's event logs and the committed fixtures.
func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			if !*updateGolden {
				checkGolden(t, tc.name, got)
				return
			}
			path := goldenPath(tc.name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(got))
		})
	}
}

// goldenPath is the fixture file of the named case.
func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".log") }

// checkGolden fails unless got is the named fixture byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := goldenPath(name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run with -update to generate): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("event log drifted from %s:\n%s\nrun `go test -run TestGoldenCorpus . -update` only if the change is intentional, and review the fixture diff", path, firstDiff(string(want), got))
	}
}

// TestFederationOfOneIsEngine: an Engine run is a federation of one,
// so a one-member Federation over a golden case's engine writes that
// case's fixture byte for byte, routes every task, raises no
// saturation and returns the Result Engine.Run does — preloaded and
// streamed alike.
func TestFederationOfOneIsEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() goldenEngine
		seed int64
	}{
		{"engine_yarn_seed1", func() goldenEngine { return engineOf(baselines.NewYARNCS()) }, 1},
		{"storm_gfs_seed8", func() goldenEngine { return stormOf(nil, 8) }, 8},
		{"autoscale_storm_seed14", func() goldenEngine { return autoscaleStormOf(14) }, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &sched.EventLog{}
			tasks := gfs.GenerateTrace(goldenTraceCfg(tc.seed))
			res := gfs.NewFederation([]gfs.Member{{Name: "solo", Engine: tc.mk()(log)}}).Run(tasks)
			checkGolden(t, tc.name, log.String())
			m := res.Members[0]
			if m.Routed != len(tasks) || res.Saturations != 0 {
				t.Fatalf("routed %d of %d tasks with %d saturations", m.Routed, len(tasks), res.Saturations)
			}
			want := tc.mk()(&sched.EventLog{}).Run(gfs.GenerateTrace(goldenTraceCfg(tc.seed)))
			if !reflect.DeepEqual(m.Result, want) {
				t.Fatalf("member result differs from Engine.Run:\n got  %+v\n want %+v", m.Result, want)
			}
		})
	}
	t.Run("replay_storm_yarn_seed7", func(t *testing.T) {
		log := &sched.EventLog{}
		out := gfs.RunBatch([]gfs.BatchSpec{{
			Name: "replay",
			SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
				src := trace.SliceSource(gfs.GenerateTrace(goldenTraceCfg(7)))
				return gfs.NewFederation([]gfs.Member{{Name: "solo", Engine: stormOf(baselines.NewYARNCS(), 7)(log)}},
					gfs.WithFederationTraceSource(src)), nil
			},
		}})[0]
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		res := out.Fed
		checkGolden(t, "replay_storm_yarn_seed7", log.String())
		if m := res.Members[0]; m.Routed != len(m.Result.Tasks) || res.Saturations != 0 {
			t.Fatalf("routed %d of %d tasks with %d saturations", m.Routed, len(m.Result.Tasks), res.Saturations)
		}
	})
}

// firstDiff renders the first differing line with context, so a
// drift failure points at the event rather than dumping megabytes.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  fixture: %s\n  got:     %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: fixture %d lines, got %d lines", len(wl), len(gl))
}
