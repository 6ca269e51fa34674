package gfs_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	gfs "github.com/sjtucitlab/gfs"
)

// TestRunContextMatchesRun asserts the context-plumbing contract: a
// RunContext that completes under a live (but unfired) context is
// byte-identical to Run over the same spec — event for event and
// metric for metric.
func TestRunContextMatchesRun(t *testing.T) {
	run := func(useCtx bool) (*gfs.Result, *gfs.EventLog) {
		log := &gfs.EventLog{}
		eng := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
			gfs.WithScenario(chaosScenario()), gfs.WithObserver(log))
		tasks := chaosTrace(11)
		if !useCtx {
			return eng.Run(tasks), log
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res, err := eng.RunContext(ctx, tasks)
		if err != nil {
			t.Fatalf("RunContext: %v", err)
		}
		return res, log
	}
	res1, log1 := run(false)
	res2, log2 := run(true)
	if log1.String() != log2.String() {
		t.Fatal("RunContext event log differs from Run")
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("RunContext result differs from Run:\n%+v\n%+v", res1, res2)
	}
}

// TestRunContextCancellation asserts that cancelling mid-run stops
// the simulation promptly — well before the trace is exhausted — with
// ctx's error, and leaks no goroutines (the run path spawns none).
func TestRunContextCancellation(t *testing.T) {
	full, fullLog := runChaos(11)
	if full == nil || len(fullLog.Events) == 0 {
		t.Fatal("full run produced no events")
	}

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &gfs.EventLog{}
	cancelAt := len(fullLog.Events) / 4
	// The observer runs synchronously inside the step loop, so
	// cancelling from it exercises the per-step check exactly.
	trip := gfs.ObserverFunc(func(e gfs.Event) {
		if len(log.Events) == cancelAt {
			cancel()
		}
		log.OnEvent(e)
	})
	eng := gfs.NewEngine(gfs.NewCluster("A100", 16, 8),
		gfs.WithScenario(chaosScenario()), gfs.WithObserver(trip))

	start := time.Now()
	res, err := eng.RunContext(ctx, chaosTrace(11))
	took := time.Since(start)

	if err != context.Canceled {
		t.Fatalf("cancelled RunContext err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled RunContext returned a result: %+v", res)
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
	// caller's goroutine.
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
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	trip := gfs.ObserverFunc(func(gfs.Event) {
		if n++; n == 50 {
			cancel()
		}
	})
	br := gfs.RunBatchContext(ctx, []gfs.BatchSpec{{Name: "a", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(gfs.NewCluster("A100", 8, 8),
			gfs.WithCollectors(gfs.DefaultCollectors()...), gfs.WithObserver(trip)), chaosTrace(3)
	}}})[0]
	if br.Err != context.Canceled || br.Result != nil || br.Report != nil {
		t.Fatalf("cancelled batch run = (%v, %v, %v), want (nil, nil, context.Canceled)", br.Result, br.Report, br.Err)
	}
}

// TestRunTraceContextCancelled asserts streamed replay honours
// cancellation and still closes its source.
func TestRunTraceContextCancelled(t *testing.T) {
	var buf bytes.Buffer
	if err := gfs.WriteTraceJSONL(&buf, chaosTrace(5)); err != nil {
		t.Fatal(err)
	}
	src, err := gfs.OpenTraceReader(&buf, gfs.TraceFormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := gfs.NewEngine(gfs.NewCluster("A100", 8, 8), gfs.WithTraceSource(src))
	res, err := eng.RunTraceContext(ctx)
	if err != context.Canceled || res != nil {
		t.Fatalf("RunTraceContext on dead ctx = (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestFederationRunContextCancelled asserts the shared-clock loop
// checks the context too.
func TestFederationRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	trip := gfs.ObserverFunc(func(gfs.Event) {
		if n++; n == 50 {
			cancel()
		}
	})
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8))},
		{Name: "east", Engine: gfs.NewEngine(gfs.NewCluster("A100", 8, 8))},
	}, gfs.WithFederationObserver(trip))
	res, err := fed.RunContext(ctx, chaosTrace(7))
	if err != context.Canceled || res != nil {
		t.Fatalf("federated RunContext = (%v, %v), want (nil, context.Canceled)", res, err)
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
