package gfs_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
)

// writeTraceCSV encodes tasks as CSV through the streaming encoder
// programs write traces with.
func writeTraceCSV(w io.Writer, tasks []*gfs.Task) error {
	enc, err := gfs.NewTraceEncoder(w, gfs.TraceFormatCSV)
	if err != nil {
		return err
	}
	for _, tk := range tasks {
		if err := enc.Encode(tk); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// replay runs the engine's attached trace source (WithTraceSource) as
// a one-spec RunBatch with a nil task slice, the path gfsim and gfsd
// replay through.
func replay(e *gfs.Engine) (*gfs.Result, error) {
	br := gfs.RunBatch([]gfs.BatchSpec{{Name: "replay", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return e, nil
	}}})[0]
	return br.Result, br.Err
}

// encodedChaosTrace renders the standard test workload as an
// in-memory gzipped CSV — the bytes every replay spec re-ingests.
func encodedChaosTrace(t testing.TB, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := writeTraceCSV(zw, chaosTrace(seed)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBytes reopens the encoded trace as a fresh streaming source.
func openBytes(t testing.TB, data []byte) gfs.TraceSource {
	t.Helper()
	src, err := gfs.OpenTraceReader(bytes.NewReader(data), gfs.TraceFormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestRunTraceMatchesRun: replaying an encoded trace through the
// streaming path gives the same result as running the generated
// slice — ingestion is lossless and injection order-faithful — both
// through RunBatch, the path programs replay through, and through the
// RunTrace bench pin (its arm goes with ROADMAP item 1a).
func TestRunTraceMatchesRun(t *testing.T) {
	eager := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
		gfs.WithScheduler(baselines.NewYARNCS())).Run(chaosTrace(17))

	engine := func() *gfs.Engine {
		return gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
			gfs.WithScheduler(baselines.NewYARNCS()),
			gfs.WithTraceSource(openBytes(t, encodedChaosTrace(t, 17))))
	}
	for _, arm := range []struct {
		name string
		run  func() (*gfs.Result, error)
	}{
		{"RunBatch", func() (*gfs.Result, error) { return replay(engine()) }},
		{"RunTrace", func() (*gfs.Result, error) { return engine().RunTrace() }},
	} {
		streamed, err := arm.run()
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if eager.HP.JCT != streamed.HP.JCT || eager.Spot.JCT != streamed.Spot.JCT ||
			eager.Spot.Evictions != streamed.Spot.Evictions ||
			eager.AllocationRate != streamed.AllocationRate || eager.End != streamed.End {
			t.Fatalf("%s replay diverged from eager run:\n eager    %+v %+v\n streamed %+v %+v",
				arm.name, eager.HP, eager.Spot, streamed.HP, streamed.Spot)
		}
	}
}

// TestRunTraceRequiresSource: RunTrace without WithTraceSource is a
// loud configuration error.
func TestRunTraceRequiresSource(t *testing.T) {
	if _, err := gfs.NewEngine(gfs.NewCluster("A100", 2, 8)).RunTrace(); err == nil {
		t.Fatal("RunTrace without a source must error")
	}
}

// replayBatch runs the full replay matrix — three seeds × two
// schedulers, each spec re-ingesting the gzipped bytes — at the given
// worker count and renders every result to one comparable string.
func replayBatch(t *testing.T, traces map[int64][]byte, workers int) string {
	t.Helper()
	var specs []gfs.BatchSpec
	for _, seed := range []int64{5, 17, 23} {
		for _, sched := range []string{"yarn", "fgd"} {
			seed, sched := seed, sched
			specs = append(specs, gfs.BatchSpec{
				Name: fmt.Sprintf("%s-%d", sched, seed),
				Setup: func() (*gfs.Engine, []*gfs.Task) {
					var s gfs.Scheduler
					if sched == "yarn" {
						s = baselines.NewYARNCS()
					} else {
						s = baselines.NewFGD()
					}
					return gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
						gfs.WithScheduler(s),
						gfs.WithTraceSource(openBytes(t, traces[seed]))), nil
				},
			})
		}
	}
	results := gfs.RunBatch(specs, gfs.WithWorkers(workers))
	var b bytes.Buffer
	for _, br := range results {
		if br.Err != nil {
			t.Fatalf("workers=%d %s: %v", workers, br.Name, br.Err)
		}
		r := br.Result
		fmt.Fprintf(&b, "%s hp=%d/%.3f spot=%d/%.3f evict=%d alloc=%.6f waste=%.3f end=%d\n",
			br.Name, r.HP.Count, r.HP.JCT, r.Spot.Count, r.Spot.JCT,
			r.Spot.Evictions, r.AllocationRate, r.WastedGPUSeconds, r.End)
	}
	return b.String()
}

// TestReplayBatchDeterministicAcrossWorkers: the acceptance gate —
// RunBatch replay of the same encoded trace is byte-identical at 1, 4
// and 8 workers.
func TestReplayBatchDeterministicAcrossWorkers(t *testing.T) {
	traces := map[int64][]byte{}
	for _, seed := range []int64{5, 17, 23} {
		traces[seed] = encodedChaosTrace(t, seed)
	}
	base := replayBatch(t, traces, 1)
	if base == "" {
		t.Fatal("empty batch output")
	}
	for _, workers := range []int{4, 8} {
		if got := replayBatch(t, traces, workers); got != base {
			t.Fatalf("replay batch diverged at %d workers:\n%s\nvs 1 worker:\n%s", workers, got, base)
		}
	}
}

// TestFederationRunTrace: a federation replays a streamed trace
// through RunBatch (a SetupFederation with a source and a nil task
// slice) and matches the eager federated run on the same workload.
func TestFederationRunTrace(t *testing.T) {
	build := func(opts ...gfs.FederationOption) *gfs.Federation {
		storm := gfs.NewScenario().FailDomain(6*gfs.Hour, "zone-0").
			RestoreDomain(12*gfs.Hour, "zone-0")
		west, east := topoCluster(), topoCluster()
		return gfs.NewFederation([]gfs.Member{
			{Name: "west", Engine: gfs.NewEngine(west,
				gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithScenario(storm))},
			{Name: "east", Engine: gfs.NewEngine(east,
				gfs.WithScheduler(baselines.NewYARNCS()))},
		}, opts...)
	}
	eager := build().Run(chaosTrace(17))
	src := &closeCounter{TraceSource: openBytes(t, encodedChaosTrace(t, 17))}
	br := gfs.RunBatch([]gfs.BatchSpec{{Name: "replay", SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
		return build(gfs.WithFederationTraceSource(src)), nil
	}}})[0]
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	streamed := br.Fed
	if src.closed != 1 {
		t.Fatalf("replayed source closed %d times, want 1", src.closed)
	}
	if eager.GoodputGPUSeconds != streamed.GoodputGPUSeconds ||
		eager.Migrations != streamed.Migrations ||
		eager.Saturations != streamed.Saturations {
		t.Fatalf("federated replay diverged:\n eager    %+v\n streamed %+v", eager, streamed)
	}
	if streamed.Migrations == 0 {
		t.Fatal("storm should force migrations")
	}
}

// TestFederationRefusesMemberSource: only the federation's own source
// feeds the shared clock, so a member engine built with
// WithTraceSource refuses the run with an error naming the member,
// and every source involved is closed exactly once.
func TestFederationRefusesMemberSource(t *testing.T) {
	for _, withFedSource := range []bool{false, true} {
		member := &closeCounter{TraceSource: openBytes(t, encodedChaosTrace(t, 17))}
		var fedSrc *closeCounter
		br := gfs.RunBatch([]gfs.BatchSpec{{Name: "fed", SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
			var opts []gfs.FederationOption
			tasks := chaosTrace(17)
			if withFedSource {
				fedSrc = &closeCounter{TraceSource: openBytes(t, encodedChaosTrace(t, 17))}
				opts, tasks = append(opts, gfs.WithFederationTraceSource(fedSrc)), nil
			}
			return gfs.NewFederation([]gfs.Member{
				{Name: "west", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8))},
				{Name: "east", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8), gfs.WithTraceSource(member))},
			}, opts...), tasks
		}}})[0]
		if br.Err == nil || !strings.Contains(br.Err.Error(), `member "east" has its own trace source`) || br.Fed != nil {
			t.Fatalf("federation source %v: run = (%v, %v), want the member source refused", withFedSource, br.Fed, br.Err)
		}
		if member.closed != 1 {
			t.Fatalf("federation source %v: member source closed %d times, want 1", withFedSource, member.closed)
		}
		if fedSrc != nil && fedSrc.closed != 1 {
			t.Fatalf("federation's own source closed %d times, want 1", fedSrc.closed)
		}
	}
}
