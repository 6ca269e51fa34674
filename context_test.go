package gfs_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// RunBatchContext is the module's one cancellable entry point (gfsim,
// gfsd and runspec.Built.Run all cancel through it), so the context
// contract is asserted on single-spec batches.

// closeCounter counts Close calls on the source it wraps.
type closeCounter struct {
	gfs.TraceSource
	closed int
}

func (c *closeCounter) Close() error {
	c.closed++
	return c.TraceSource.Close()
}

// cancelAfter returns a context and an observer that cancels it when
// the n-th event arrives. The observer runs synchronously inside the
// step loop, so cancelling from it exercises the per-step check exactly.
func cancelAfter(n int) (context.Context, gfs.Observer) {
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	return ctx, gfs.ObserverFunc(func(gfs.Event) {
		if seen++; seen == n {
			cancel()
		}
	})
}

// chaosSpec is the chaos-scenario engine of runChaos as a batch spec.
func chaosSpec(seed int64, obs ...gfs.Observer) []gfs.BatchSpec {
	return []gfs.BatchSpec{{Name: "chaos", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(chaosCluster(),
			gfs.WithScenario(chaosScenario()), gfs.WithObserver(obs...)), chaosTrace(seed)
	}}}
}

// TestRunContextMatchesRun asserts the context-plumbing contract: a
// run that completes under a live (but unfired) context is
// byte-identical to Run over the same spec — event for event and
// metric for metric.
func TestRunContextMatchesRun(t *testing.T) {
	res1, log1 := runChaos(11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log2 := &sched.EventLog{}
	br := gfs.RunBatchContext(ctx, chaosSpec(11, log2))[0]
	if br.Err != nil {
		t.Fatalf("run under a live context: %v", br.Err)
	}
	if log1.String() != log2.String() {
		t.Fatal("event log under a live context differs from Run")
	}
	if !reflect.DeepEqual(res1, br.Result) {
		t.Fatalf("result under a live context differs from Run:\n%+v\n%+v", res1, br.Result)
	}
}

// TestRunContextCancellation asserts that cancelling mid-run stops
// the simulation promptly — well before the trace is exhausted — with
// ctx's error, and leaks no goroutines (the run path spawns none
// beyond the batch's own worker, which RunBatchContext waits for).
func TestRunContextCancellation(t *testing.T) {
	full, fullLog := runChaos(11)
	if full == nil || len(fullLog.Events) == 0 {
		t.Fatal("full run produced no events")
	}

	before := runtime.NumGoroutine()

	cancelAt := len(fullLog.Events) / 4
	ctx, trip := cancelAfter(cancelAt + 1)
	log := &sched.EventLog{}

	start := time.Now()
	br := gfs.RunBatchContext(ctx, chaosSpec(11, trip, log))[0]
	took := time.Since(start)

	if br.Err != context.Canceled {
		t.Fatalf("cancelled run err = %v, want context.Canceled", br.Err)
	}
	if br.Result != nil {
		t.Fatalf("cancelled run returned a result: %+v", br.Result)
	}
	if took > 5*time.Second {
		t.Fatalf("cancelled run returned after %v", took)
	}
	// The run stopped near the cancellation point, not at the end of
	// the trace: one simulator step can emit a burst of events, but
	// nothing close to the remaining three quarters of the run.
	if got, limit := len(log.Events), cancelAt+len(fullLog.Events)/4; got > limit {
		t.Fatalf("cancelled run emitted %d events (cancelled at %d, full run %d)", got, cancelAt, len(fullLog.Events))
	}

	// No goroutines may linger: the simulator runs entirely on the
	// goroutine that called it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledRunAssemblesNoReport asserts the report path assembles
// nothing once cancelled: a batch run stopped in flight carries
// neither result nor report even though its engine has collectors.
func TestCancelledRunAssemblesNoReport(t *testing.T) {
	ctx, trip := cancelAfter(50)
	br := gfs.RunBatchContext(ctx, []gfs.BatchSpec{{Name: "a", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
			gfs.WithCollectors(gfs.DefaultCollectors()...), gfs.WithObserver(trip)), chaosTrace(3)
	}}})[0]
	if br.Err != context.Canceled || br.Result != nil || br.Report != nil {
		t.Fatalf("cancelled batch run = (%v, %v, %v), want (nil, nil, context.Canceled)", br.Result, br.Report, br.Err)
	}
}

// TestRunTraceContextCancelled asserts streamed replay honours
// cancellation mid-stream and still closes its source.
func TestRunTraceContextCancelled(t *testing.T) {
	src := &closeCounter{TraceSource: openBytes(t, encodedChaosTrace(t, 5))}
	ctx, trip := cancelAfter(50)
	br := gfs.RunBatchContext(ctx, []gfs.BatchSpec{{Name: "replay", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(gfs.NewCluster("A100", 8, 8), gfs.WithTraceSource(src), gfs.WithObserver(trip)), nil
	}}})[0]
	if br.Err != context.Canceled || br.Result != nil {
		t.Fatalf("cancelled replay = (%v, %v), want (nil, context.Canceled)", br.Result, br.Err)
	}
	if src.closed != 1 {
		t.Fatalf("cancelled replay closed its source %d times, want 1", src.closed)
	}
	if _, err := src.Next(); err != nil {
		t.Fatalf("cancelled replay did not stop mid-stream: its source is drained (%v)", err)
	}
}

// TestFederationRunContextCancelled asserts the shared-clock loop
// checks the context too.
func TestFederationRunContextCancelled(t *testing.T) {
	ctx, trip := cancelAfter(50)
	br := gfs.RunBatchContext(ctx, []gfs.BatchSpec{{Name: "fed", SetupFederation: func() (*gfs.Federation, []*gfs.Task) {
		return gfs.NewFederation([]gfs.Member{
			{Name: "west", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8))},
			{Name: "east", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8))},
		}, gfs.WithFederationObserver(trip), gfs.WithFederationCollectors(nil)), chaosTrace(7)
	}}})[0]
	if br.Err != context.Canceled || br.Fed != nil || br.FedReport != nil {
		t.Fatalf("cancelled federated run = (%v, %v, %v), want (nil, nil, context.Canceled)", br.Fed, br.FedReport, br.Err)
	}
}

// TestRunBatchContextCancelled asserts batch runs fail fast with the
// context's error once it fires.
func TestRunBatchContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []gfs.BatchSpec{
		{Name: "a", Setup: func() (*gfs.Engine, []*gfs.Task) {
			return gfs.NewEngine(gfs.NewCluster("A100", 8, 8)), chaosTrace(1)
		}},
		{Name: "b", Setup: func() (*gfs.Engine, []*gfs.Task) {
			return gfs.NewEngine(gfs.NewCluster("A100", 8, 8)), chaosTrace(2)
		}},
	}
	for _, br := range gfs.RunBatchContext(ctx, specs, gfs.WithWorkers(2)) {
		if br.Err != context.Canceled {
			t.Fatalf("batch run %s err = %v, want context.Canceled", br.Name, br.Err)
		}
		if br.Result != nil || br.Report != nil {
			t.Fatalf("cancelled batch run %s carries results", br.Name)
		}
	}
}
