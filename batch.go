package gfs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// BatchSpec describes one run in a batch sweep. Setup must build ALL
// of the run's state — cluster, engine, and trace — from scratch, so
// runs share nothing mutable and the batch parallelizes safely:
//
//	specs := []gfs.BatchSpec{}
//	for seed := int64(1); seed <= 32; seed++ {
//		seed := seed
//		specs = append(specs, gfs.BatchSpec{
//			Name: fmt.Sprintf("seed-%d", seed),
//			Setup: func() (*gfs.Engine, []*gfs.Task) {
//				cl := gfs.NewCluster("A100", 16, 8)
//				cfg := gfs.DefaultTraceConfig()
//				cfg.Seed = seed
//				return gfs.NewEngine(cl), gfs.GenerateTrace(cfg)
//			},
//		})
//	}
//	results := gfs.RunBatch(specs, gfs.WithWorkers(8))
type BatchSpec struct {
	// Name labels the run in results.
	Name string
	// Setup builds the engine and trace for this run. A setup may
	// instead attach a streaming trace (WithTraceSource) and return a
	// nil task slice: the batch then replays the source, with source
	// errors landing in BatchResult.Err. Each run needs its own
	// source — sources are single-use.
	Setup func() (*Engine, []*Task)
	// SetupFederation builds a federated run instead; exactly one of
	// Setup and SetupFederation must be set. Like Setup it must build
	// all state — members, engines, trace — from scratch. A federated
	// replay spec attaches a source (WithFederationTraceSource) and
	// returns a nil task slice.
	SetupFederation func() (*Federation, []*Task)
}

// BatchResult is the outcome of one batch run.
type BatchResult struct {
	Name   string
	Result *Result
	// Fed holds the result of a SetupFederation run (Result is nil).
	Fed *FederationResult
	// Report holds the run's collected report when the spec's engine
	// registered collectors (WithCollectors); FedReport likewise for
	// federations built with WithFederationCollectors. Reports are
	// byte-identical across worker counts for deterministic specs.
	Report    *Report
	FedReport *FederationReport
	// Err is non-nil when setup was missing or ambiguous (both Setup
	// functions, or a trace source alongside a task slice), the run
	// failed or was cancelled, or it panicked.
	Err error
}

type batchConfig struct {
	workers int
}

// BatchOption configures RunBatch.
type BatchOption func(*batchConfig)

// WithWorkers sets the number of concurrent runs (default: GOMAXPROCS,
// capped at the batch size). Worker count never changes results; runs
// are independent and results keep spec order.
func WithWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// RunBatch executes every spec, fanning out over a worker pool, and
// returns results in spec order. Each run is deterministic in its
// spec alone, so a batch produces byte-identical results at any
// worker count.
func RunBatch(specs []BatchSpec, opts ...BatchOption) []BatchResult {
	return RunBatchContext(context.Background(), specs, opts...)
}

// RunBatchContext is RunBatch with cooperative cancellation: ctx is
// threaded into every run (checked at simulator-step granularity),
// so cancelling it stops in-flight runs promptly and fails not-yet-
// started ones without running them. Cancelled runs carry ctx's
// error in BatchResult.Err; results keep spec order either way.
func RunBatchContext(ctx context.Context, specs []BatchSpec, opts ...BatchOption) []BatchResult {
	cfg := batchConfig{workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.workers > len(specs) {
		cfg.workers = len(specs)
	}

	results := make([]BatchResult, len(specs))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(ctx, specs[i])
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes one spec, converting panics into errors so a single
// bad run cannot take down the sweep.
func runOne(ctx context.Context, spec BatchSpec) (br BatchResult) {
	br.Name = spec.Name
	defer func() {
		if r := recover(); r != nil {
			br.Err = fmt.Errorf("gfs: batch run %q panicked: %v", spec.Name, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		// Cancelled before this run started: fail it without paying
		// for Setup.
		br.Err = err
		return br
	}
	switch {
	case spec.Setup == nil && spec.SetupFederation == nil:
		br.Err = fmt.Errorf("gfs: batch run %q has no Setup", spec.Name)
	case spec.Setup != nil && spec.SetupFederation != nil:
		br.Err = fmt.Errorf("gfs: batch run %q sets both Setup and SetupFederation", spec.Name)
	case spec.SetupFederation != nil:
		fed, tasks := spec.SetupFederation()
		br.Fed, br.Err = fed.run(ctx, tasks)
		if br.Err == nil && fed.aggCollectors != nil {
			br.FedReport = fed.report()
		}
	default:
		eng, tasks := spec.Setup()
		br.Result, br.Err = eng.run(ctx, tasks)
		if br.Err == nil {
			br.Report = eng.report()
		}
	}
	return br
}
