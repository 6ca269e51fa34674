package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// layerValues holds per-layer metric values by name; names never set
// are reported as 0.
type layerValues map[string]float64

// render turns the values into the printed metrics, one for every
// per-layer spec.
func (v layerValues) render() map[string]metric {
	out := make(map[string]metric, len(perLayerSpecs))
	for _, l := range perLayerSpecs {
		out[l.Name] = metric{Value: v[l.Name], Unit: l.Unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			panic("bench: per-layer metric " + name + " has no spec")
		}
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serialTraced is the traced pass of a serial workload: untraced and
// decorated operations alternate until c.seconds have passed — the
// untraced ones give the digests the decorated ones must reproduce
// and the time tracing is charged against — then the isolated probes
// run.
func serialTraced(c *config, w *workload, exp map[string]string) (*result, error) {
	shared, err := w.oneTime(c)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	k := &checker{exp: exp, collect: c.collect}
	tr := newRecorder("sched.step")
	var ref, traced opSamples
	var last *opResult
	start := time.Now()
	for len(traced.walls) == 0 || time.Since(start).Seconds() < c.seconds {
		for _, rec := range []*recorder{nil, tr} {
			tr.nextOp()
			op, err := w.prepare(c, shared, rec)
			if err != nil {
				return nil, fmt.Errorf("per-operation set-up: %w", err)
			}
			samples := &ref
			if rec != nil {
				samples = &traced
			}
			if out, err := samples.measureOp(op); k.check(out, err) {
				last = out
			}
		}
	}
	if len(tr.stack) != 0 {
		return nil, fmt.Errorf("span recorder: %d spans left open", len(tr.stack))
	}

	v := layerValues{}
	if last != nil {
		simMetrics(v, last)
	}
	spanMetrics(v, tr)
	refWall := median(seconds(ref.walls))
	v["runtime.allocs_per_op"] = float64(ref.mallocs) / float64(len(ref.walls))
	v["runtime.alloc_mb_per_op"] = float64(ref.bytes) / float64(len(ref.walls)) / (1 << 20)
	v["sched.trace_overhead_pct"] = 100 * (median(seconds(traced.walls)) - refWall) / refWall
	if w.batch {
		// The same sweep on GOMAXPROCS workers, for the RunBatch
		// speed-up.
		u := *c
		u.batchWorkers = c.procs
		var many opSamples
		op, err := w.prepare(&u, shared, nil)
		if err != nil {
			return nil, err
		}
		if out, err := many.measureOp(op); k.check(out, err) {
			v["batch.runs"] = float64(out.units)
			v["batch.speedup_vs_1worker"] = refWall / many.walls[0].Seconds()
		}
	}
	if err := probes(c, v); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	printAttribution(w.name, tr, v)
	if err := writeTrace(c, tr); err != nil {
		return nil, err
	}
	return finish(k, len(ref.walls)+len(traced.walls), v.render()), nil
}

// simMetrics reports the simulated statistics of an operation.
func simMetrics(v layerValues, out *opResult) {
	if out.sim == nil {
		return
	}
	v["sim.tasks"] = float64(len(out.sim.Tasks))
	v["sim.alloc_rate"] = out.sim.AllocationRate
	v["sim.spot_evict_rate"] = out.sim.Spot.EvictionRate
	v["sim.spot_jqt_s"] = out.sim.Spot.JQT
	v["sim.hp_jqt_s"] = out.sim.HP.JQT
}

// spanMetrics derives the in-situ per-layer metrics from the spans of
// the traced operations. Root spans are named "op"; counts and times
// are divided by their number, shares by their total time.
func spanMetrics(v layerValues, tr *recorder) {
	root := tr.of("op")
	ops := float64(root.count)
	wall := float64(root.total)
	if ops == 0 {
		return
	}
	ns := func(a spanAgg) float64 { return float64(a.total) }

	// Engine loop. The root's own self time is the bench's stepping
	// loop, part of driving the engine.
	step := tr.of("sched.step")
	self := float64(root.self + tr.of("sched.new").self + step.self + tr.of("sched.finish").self)
	observer := tr.of("bench.observer")
	events := float64(observer.count)
	if c := tr.of("collector.summary"); c.count > 0 {
		events = float64(c.count)
	}
	v["sched.steps"] = float64(step.count) / ops
	v["sched.events"] = events / ops
	v["sched.step_self_ns"] = self / ops
	v["sched.step_self_share"] = self / wall
	v["sched.ns_per_event"] = ratio(wall, events)
	if n := len(step.durations); n > 0 {
		ds := seconds(step.durations)
		sort.Float64s(ds)
		v["sched.step_p50_us"] = percentile(ds, 50) * 1e6
		v["sched.step_p99_us"] = percentile(ds, 99) * 1e6
		v["sched.step_max_ms"] = ds[n-1] * 1e3
		v["sched.pending_mean"] = tr.counters["sched.pending_sum"] / float64(step.count)
		v["sched.pending_max"] = tr.counters["sched.pending_max"]
	}

	// Schedulers.
	place, preempt, fail := tr.of("pts.place"), tr.of("pts.preempt"), tr.of("pts.fail")
	calls := float64(place.count + preempt.count + fail.count)
	busy := ns(place) + ns(preempt) + ns(fail)
	v["pts.schedule_calls"] = calls / ops
	v["pts.schedule_ok"] = float64(place.count+preempt.count) / ops
	v["pts.schedule_fail"] = float64(fail.count) / ops
	v["pts.place_ok_ratio"] = ratio(float64(place.count+preempt.count), calls)
	v["pts.schedule_busy_ns"] = busy / ops
	v["pts.schedule_share"] = busy / wall
	v["pts.place_ns_per_call"] = ratio(ns(place), float64(place.count))
	v["pts.fail_ns_per_call"] = ratio(ns(fail), float64(fail.count))
	v["pts.preempt_calls"] = float64(preempt.count) / ops
	v["pts.preempt_ns_per_call"] = ratio(ns(preempt), float64(preempt.count))
	v["pts.victims"] = tr.counters["pts.victims"] / ops

	bcalls, bbusy := 0.0, 0.0
	for _, name := range []string{"baselines.place", "baselines.preempt", "baselines.fail"} {
		bcalls += float64(tr.of(name).count)
		bbusy += ns(tr.of(name))
	}
	v["baselines.schedule_calls"] = bcalls / ops
	v["baselines.schedule_busy_ns"] = bbusy / ops
	v["baselines.schedule_share"] = bbusy / wall
	v["baselines.ns_per_call"] = ratio(bbusy, bcalls)

	// Quota tick and the forecasts inside it.
	quota, fc := tr.of("core.quota"), tr.of("gde.forecast")
	v["core.quota_ticks"] = float64(quota.count) / ops
	v["core.quota_busy_ns"] = ns(quota) / ops
	v["core.quota_share"] = ns(quota) / wall
	v["core.quota_ns_per_tick"] = ratio(ns(quota), float64(quota.count))
	v["gde.forecast_calls"] = float64(fc.count) / ops
	v["gde.forecast_busy_ns"] = ns(fc) / ops
	v["gde.forecast_ns_per_call"] = ratio(ns(fc), float64(fc.count))
	v["gde.forecast_share"] = ns(fc) / wall
	v["sqa.tick_self_ns"] = float64(quota.self) / ops

	// Collectors and exports.
	cbusy := 0.0
	for name, a := range tr.agg {
		if short, ok := strings.CutPrefix(name, "collector."); ok {
			cbusy += float64(a.total)
			v["collector."+short+"_ns_per_event"] = ratio(float64(a.total), float64(a.count))
		}
	}
	if cbusy > 0 {
		v["collector.events"] = events / ops
		v["collector.busy_ns"] = cbusy / ops
		v["collector.ns_per_event"] = ratio(cbusy, events)
		v["collector.share"] = cbusy / wall
	}
	v["report.assemble_ns"] = ns(tr.of("report.assemble")) / ops
	export := 0.0
	for _, ex := range exports {
		t := ns(tr.of(ex.span))
		v[ex.span+"_ns"] = t / ops
		export += t
	}
	v["report.bytes"] = tr.counters["report.bytes"] / ops
	v["report.export_share"] = (export + ns(tr.of("report.assemble"))) / wall

	// Streaming decode.
	next := tr.of("trace.next")
	decode := ns(next) + ns(tr.of("trace.open"))
	v["trace.next_calls"] = float64(next.count) / ops
	v["trace.decode_busy_ns"] = decode / ops
	v["trace.decode_ns_per_task"] = ratio(decode, float64(next.count))
	v["trace.decode_share"] = decode / wall
	v["trace.mb_per_s"] = ratio(tr.counters["trace.bytes"]/(1<<20), decode/1e9)

	// Everything under a root is either a named layer's span or the
	// engine's self time, so the shares sum to 1 by construction;
	// report the sum so a missing span shows.
	attributed := self + busy + bbusy + ns(quota) + ns(observer) + cbusy +
		export + ns(tr.of("report.assemble")) + decode
	v["sched.attributed_share"] = attributed / wall
}

// printAttribution writes the layer table of a traced run to standard
// error.
func printAttribution(name string, tr *recorder, v layerValues) {
	fmt.Fprintf(os.Stderr, "%s: per-operation attribution (tracing overhead %.1f%%, %.1f%% attributed)\n",
		name, v["sched.trace_overhead_pct"], 100*v["sched.attributed_share"])
	root := tr.of("op")
	names := make([]string, 0, len(tr.agg))
	for n := range tr.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := tr.agg[n]
		fmt.Fprintf(os.Stderr, "  %-24s calls %10d  total %10.3f ms  self %10.3f ms  self share %5.1f%%\n",
			n, a.count/root.count, float64(a.total)/1e6/float64(root.count),
			float64(a.self)/1e6/float64(root.count), 100*float64(a.self)/float64(root.total))
	}
}

// writeTrace writes the recorder's spans to the -trace-out file.
func writeTrace(c *config, tr *recorder) error {
	if c.traceOut == "" {
		return nil
	}
	f, err := os.Create(c.traceOut)
	if err != nil {
		return err
	}
	if err := tr.writeChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serviceTraced is the traced pass of the daemon workload: half the
// time untraced for the overhead reference, half with a span around
// every client round trip.
func serviceTraced(c *config, exp map[string]string) (*result, error) {
	specs, err := serviceSpecs(c)
	if err != nil {
		return nil, err
	}
	k := &checker{exp: exp, collect: c.collect}
	k.check(&opResult{digests: specDigests(specs)}, nil)
	d := startDaemon(c.procs)
	defer d.stop()
	d.runSessions(specs, c.procs, time.Minute, int64(len(specs)), false) // warm the connections

	// Untraced and traced phases alternate so both see the same mix
	// of heap sizes.
	const phases = 4
	phase := time.Duration(c.seconds * float64(time.Second) / phases)
	var ref, samples []sessionSample
	var refWall, wall time.Duration
	var mallocs, bytes uint64
	tr := newRecorder()
	for i := 0; i < phases; i += 2 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, rw, _ := d.runSessions(specs, c.procs, phase, sessionLimit(c), false)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		t, tw, rec := d.runSessions(specs, c.procs, phase, sessionLimit(c), true)
		ref, refWall = append(ref, r...), refWall+rw
		samples, wall = append(samples, t...), wall+tw
		tr.merge(rec)
	}

	var total, ttfe, post, fetch []float64
	var events, streamBytes, reportBytes, gaps, s503, s5xx float64
	for _, s := range samples {
		s503 += float64(s.status503)
		s5xx += float64(s.status5xx)
		gaps += float64(s.gaps)
		if !k.session(s) {
			continue
		}
		total = append(total, s.total.Seconds())
		ttfe = append(ttfe, s.ttfe.Seconds())
		post = append(post, s.post.Seconds())
		fetch = append(fetch, s.fetch.Seconds())
		events += float64(s.events)
		streamBytes += float64(s.streamBytes)
		reportBytes += float64(s.reportBytes)
	}
	for _, s := range ref {
		k.session(s)
	}
	if len(total) == 0 || len(ref) == 0 {
		return nil, fmt.Errorf("no session succeeded: %v", k.notes)
	}
	streamBusy := tr.of("service.stream").total
	n := float64(len(total))
	for _, xs := range [][]float64{total, ttfe, post, fetch} {
		sort.Float64s(xs)
	}
	direct := 0.0
	for _, sp := range specs {
		direct += sp.direct.Seconds() / float64(len(specs))
	}
	v := layerValues{
		"service.session_p50_ms":      percentile(total, 50) * 1e3,
		"service.session_p99_ms":      percentile(total, 99) * 1e3,
		"service.ttfe_p50_ms":         percentile(ttfe, 50) * 1e3,
		"service.ttfe_p99_ms":         percentile(ttfe, 99) * 1e3,
		"service.post_p50_ms":         percentile(post, 50) * 1e3,
		"service.post_p99_ms":         percentile(post, 99) * 1e3,
		"service.report_fetch_p50_ms": percentile(fetch, 50) * 1e3,
		"service.stream_events":       events / n,
		"service.stream_events_per_s": ratio(events, streamBusy.Seconds()),
		"service.stream_mb_per_s":     ratio(streamBytes/(1<<20), streamBusy.Seconds()),
		"service.stream_gaps":         gaps,
		"service.report_bytes":        reportBytes / n,
		"service.rejected_503":        s503,
		"service.http_5xx":            s5xx,
		// Mean direct gfs.NewEngine time of the four specs over the
		// mean session time: what is left is transport, pool, event
		// encoding and report export.
		"service.engine_share": direct / (sum(total) / n),
	}
	v["runtime.allocs_per_op"] = float64(mallocs) / float64(len(ref))
	v["runtime.alloc_mb_per_op"] = float64(bytes) / float64(len(ref)) / (1 << 20)
	refRate := float64(len(ref)) / refWall.Seconds()
	tracedRate := float64(len(samples)) / wall.Seconds()
	v["sched.trace_overhead_pct"] = 100 * (refRate - tracedRate) / tracedRate
	v["sched.attributed_share"] = ratio(float64(tr.of("service.post").total+tr.of("service.stream").total+tr.of("service.report").total), float64(tr.of("op").total))
	if err := probes(c, v); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	printAttribution(c.workload, tr, v)
	if err := writeTrace(c, tr); err != nil {
		return nil, err
	}
	return finish(k, len(ref)+len(samples), v.render()), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
