package runspec

import (
	"bytes"
	"context"
	"strings"
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// TestValidateBounds: the sizing bounds reject the first value past
// each limit and accept the limit itself; the removed "shards" field
// is no longer a field at all.
func TestValidateBounds(t *testing.T) {
	for _, sp := range []Spec{
		{Nodes: maxNodes + 1}, {GPUsPerNode: maxGPUsPerNode + 1}, {Days: maxDays + 1},
		{SpotScale: maxSpotScale + 1}, {Nodes: -1},
	} {
		sp.Normalize()
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %+v should be out of bounds", sp)
		}
	}
	at := Spec{Nodes: maxNodes, GPUsPerNode: maxGPUsPerNode, Days: maxDays, SpotScale: maxSpotScale}
	at.Normalize()
	if err := at.Validate(); err != nil {
		t.Fatalf("spec at the bounds rejected: %v", err)
	}
	if _, err := Decode([]byte(`{"shards":2}`)); err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
		t.Fatalf(`Decode of the removed "shards" field = %v, want an unknown-field error`, err)
	}
}

// TestBuildRejectsAndReleases: Build validates for itself, and a
// rejected build closes the trace source it was handed.
func TestBuildRejectsAndReleases(t *testing.T) {
	src := &closeCounter{TraceSource: trace.SliceSource(nil)}
	if _, err := Build(Spec{Scheduler: "nope"}, src, nil); err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("Build of an unknown scheduler = %v", err)
	}
	if src.closed == 0 {
		t.Fatal("rejected Build leaked its trace source")
	}
}

type closeCounter struct {
	gfs.TraceSource
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return c.TraceSource.Close() }

// TestRunMatchesDirectEngine: a built spec's report is byte-identical
// to the same run assembled by hand on the public Engine API — the
// builder adds nothing of its own to a run.
func TestRunMatchesDirectEngine(t *testing.T) {
	sp := Spec{Scheduler: "firstfit", Nodes: 4, Scenario: "rack-failure", Seed: 5}
	built, err := Build(sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := built.Run(context.Background())
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var got bytes.Buffer
	if err := WriteReport(&got, out, "jsonl"); err != nil {
		t.Fatal(err)
	}

	sp.Normalize()
	scale := sp.Scale()
	storm, err := scale.NamedScenario(sp.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	rep := gfs.NewEngine(scale.NewCluster(),
		gfs.WithScheduler(gfs.NewStaticFirstFit()), gfs.WithQuota(gfs.StaticQuota(0.25)),
		gfs.WithScenario(storm),
	).RunReport(scale.Trace(sp.SpotScale))
	var want bytes.Buffer
	if err := rep.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("built run's report differs from the direct engine's (%d vs %d bytes)", got.Len(), want.Len())
	}
	if out.Result == nil || out.Result.SchedulerName != rep.Summary.Scheduler {
		t.Fatalf("built run's result = %+v", out.Result)
	}
}

// TestRunCancelledBeforeStartClosesSource: a run cancelled before it
// starts never reaches the engine, so the runner releases the source.
func TestRunCancelledBeforeStartClosesSource(t *testing.T) {
	src := &closeCounter{TraceSource: trace.SliceSource(nil)}
	built, err := Build(Spec{}, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := built.Run(ctx); out.Err != context.Canceled {
		t.Fatalf("cancelled run err = %v, want context.Canceled", out.Err)
	}
	if src.closed == 0 {
		t.Fatal("cancelled run leaked its trace source")
	}
}
