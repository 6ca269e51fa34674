package main

// metricSpec describes one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSeconds is how long one run measures (BENCHMARK.json's
// run_seconds, and the default of -seconds).
const runSeconds = 12

// endToEndSpecs are the metrics a user of the system sees, printed by
// the untraced pass for every workload. All timings are host wall
// time. A bound is per metric, not per workload, so it is set by the
// workload on which the metric is least steady, and every timing sits
// at the contract's ceiling of 25 %: on the shared 2-core sandbox the
// same binary on the same input drifts by up to 19 % between runs
// minutes apart (quartile spread over ten runs, measured), and
// neither the fastest operation of a run nor its CPU time is steadier
// than its median.
//
// The number of allocations is not among them although the repository
// gates on it elsewhere: Chronus's allocation count moves between
// 2.0 M and 9.0 M per run under a ±2 s perturbation of the trace, so
// across seeds it says nothing. It is reported per layer instead.
var endToEndSpecs = []metricSpec{
	// One-time set-up (estimator training, trace encoding, daemon
	// start) plus the median per-operation set-up (trace generation,
	// cluster and engine construction).
	{"setup_s", "s", "lower", 0.25},
	// Median wall time of one operation.
	{"run_s", "s", "lower", 0.25},
	// The highest of p99/p95/p90 of operation wall time that has ten
	// samples beyond it, the median when none has: p95 for
	// service_sessions, the median for the simulation workloads,
	// which run tens of operations at most.
	{"op_tail_ms", "ms", "lower", 0.25},
	// Operations per second of measured time: runs/s for the sweep,
	// sessions/s for the daemon.
	{"ops_per_s", "1/s", "higher", 0.25},
	// MemStats.TotalAlloc delta per operation.
	{"alloc_mb_per_op", "MB", "lower", 0.25},
	// VmHWM of the workload's process.
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerSpec is one per-layer metric: a name led by the module it
// belongs to, a unit and a direction.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayerSpecs are the metrics of single layers, printed by the
// traced pass. A metric that does not apply to a workload is 0 there.
// Counts and times are per operation (per run for the sweep, per
// session for the daemon) unless the name says otherwise.
var perLayerSpecs = []layerSpec{
	// internal/sched: the engine's own event loop. Self time is the
	// NewSimulator/Step/Finish spans minus the scheduler, quota and
	// observer calls made from inside them.
	{"sched.steps", "count", "lower"},
	{"sched.events", "count", "lower"},
	{"sched.step_self_ns", "ns", "lower"},
	{"sched.step_self_share", "fraction", "lower"},
	{"sched.ns_per_event", "ns", "lower"},
	{"sched.step_p50_us", "us", "lower"},
	{"sched.step_p99_us", "us", "lower"},
	{"sched.step_max_ms", "ms", "lower"},
	{"sched.pending_mean", "count", "lower"},
	{"sched.pending_max", "count", "lower"},
	{"sched.trace_overhead_pct", "%", "lower"},
	{"sched.attributed_share", "fraction", "higher"},

	// internal/pts: Schedule calls by outcome. A failed call is a
	// wasted scan; a call that returns victims planned a preemption.
	{"pts.schedule_calls", "count", "lower"},
	{"pts.schedule_ok", "count", "higher"},
	{"pts.schedule_fail", "count", "lower"},
	{"pts.place_ok_ratio", "fraction", "higher"},
	{"pts.schedule_busy_ns", "ns", "lower"},
	{"pts.schedule_share", "fraction", "lower"},
	{"pts.place_ns_per_call", "ns", "lower"},
	{"pts.fail_ns_per_call", "ns", "lower"},
	{"pts.preempt_calls", "count", "lower"},
	{"pts.preempt_ns_per_call", "ns", "lower"},
	{"pts.victims", "count", "lower"},

	// internal/baselines behind the same decorator.
	{"baselines.schedule_calls", "count", "lower"},
	{"baselines.schedule_busy_ns", "ns", "lower"},
	{"baselines.schedule_share", "fraction", "lower"},
	{"baselines.ns_per_call", "ns", "lower"},

	// internal/core quota tick = GDE forecasts + SQA arithmetic.
	{"core.quota_ticks", "count", "lower"},
	{"core.quota_busy_ns", "ns", "lower"},
	{"core.quota_share", "fraction", "lower"},
	{"core.quota_ns_per_tick", "ns", "lower"},
	{"gde.forecast_calls", "count", "lower"},
	{"gde.forecast_busy_ns", "ns", "lower"},
	{"gde.forecast_ns_per_call", "ns", "lower"},
	{"gde.forecast_share", "fraction", "lower"},
	{"sqa.tick_self_ns", "ns", "lower"},

	// Collectors and report export (root package).
	{"collector.events", "count", "lower"},
	{"collector.busy_ns", "ns", "lower"},
	{"collector.ns_per_event", "ns", "lower"},
	{"collector.share", "fraction", "lower"},
	{"collector.summary_ns_per_event", "ns", "lower"},
	{"collector.orgs_ns_per_event", "ns", "lower"},
	{"collector.evictions_ns_per_event", "ns", "lower"},
	{"collector.quota_ns_per_event", "ns", "lower"},
	{"collector.timeline_ns_per_event", "ns", "lower"},
	{"collector.cost_ns_per_event", "ns", "lower"},
	{"report.assemble_ns", "ns", "lower"},
	{"report.jsonl_ns", "ns", "lower"},
	{"report.csv_ns", "ns", "lower"},
	{"report.timeline_csv_ns", "ns", "lower"},
	{"report.quota_csv_ns", "ns", "lower"},
	{"report.prom_ns", "ns", "lower"},
	{"report.bytes", "B", "lower"},
	{"report.export_share", "fraction", "lower"},

	// internal/trace streaming decode.
	{"trace.next_calls", "count", "lower"},
	{"trace.decode_busy_ns", "ns", "lower"},
	{"trace.decode_ns_per_task", "ns", "lower"},
	{"trace.decode_share", "fraction", "lower"},
	{"trace.mb_per_s", "MB/s", "higher"},

	// RunBatch (root package).
	{"batch.runs", "count", "higher"},
	{"batch.speedup_vs_1worker", "ratio", "higher"},

	// internal/service as its HTTP clients see it.
	{"service.session_p50_ms", "ms", "lower"},
	{"service.session_p99_ms", "ms", "lower"},
	{"service.ttfe_p50_ms", "ms", "lower"},
	{"service.ttfe_p99_ms", "ms", "lower"},
	{"service.post_p50_ms", "ms", "lower"},
	{"service.post_p99_ms", "ms", "lower"},
	{"service.stream_events", "count", "lower"},
	{"service.stream_events_per_s", "1/s", "higher"},
	{"service.stream_mb_per_s", "MB/s", "higher"},
	{"service.stream_gaps", "count", "lower"},
	{"service.report_fetch_p50_ms", "ms", "lower"},
	{"service.report_bytes", "B", "lower"},
	{"service.rejected_503", "count", "lower"},
	{"service.http_5xx", "count", "lower"},
	{"service.engine_share", "fraction", "lower"},

	// Go runtime, from the untraced operations of the traced run.
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},

	// Simulated statistics (simulated time, not host time): they
	// repeat bit for bit for a fixed seed and are pinned in
	// expected.json; a change that moves them changed the model.
	{"sim.tasks", "count", "higher"},
	{"sim.alloc_rate", "fraction", "higher"},
	{"sim.spot_evict_rate", "fraction", "lower"},
	{"sim.spot_jqt_s", "sim_s", "lower"},
	{"sim.hp_jqt_s", "sim_s", "lower"},

	// Isolated probes: fixed inputs, the layer's public functions
	// timed directly.
	{"simclock.hold_ns_1k", "ns", "lower"},
	{"simclock.hold_ns_100k", "ns", "lower"},
	{"simclock.sharded_hold_ns_100k", "ns", "lower"},
	{"cluster.place_release_ns", "ns", "lower"},
	{"cluster.canfit_scan_ns_per_node", "ns", "lower"},
	{"cluster.agg_read_after_write_ns_10k", "ns", "lower"},
	{"pts.place_scan_hot_ns_287", "ns", "lower"},
	{"pts.place_scan_hot_ns_1250", "ns", "lower"},
	{"pts.place_scan_hot_ns_10000", "ns", "lower"},
	{"pts.place_scan_cold_ns_10000", "ns", "lower"},
	{"pts.preempt_plan_ns_1250", "ns", "lower"},
	{"sqa.tick_ns", "ns", "lower"},
	{"gde.forecast_ns_per_org", "ns", "lower"},
	{"gde.train_s", "s", "lower"},
	{"trace.csv_gz_decode_ns_per_task", "ns", "lower"},
	{"trace.jsonl_decode_ns_per_task", "ns", "lower"},
	{"trace.csv_encode_ns_per_task", "ns", "lower"},
}

// benchmarkJSON is the content of BENCHMARK.json at the root of the
// repository; the smoke test keeps the committed file equal to it.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
	for _, w := range workloads() {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	return b
}
