package main

import (
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// The decorators below put a span around each call into a layer's
// public functions. The engine type-asserts its quota policy to
// sched.AdmissionLimiter and sched.EtaReporter and its scheduler to
// sched.RuntimeInflater, so a plain wrapper would silently change the
// simulation (measured on paper_gfs: spot eviction 4.25 % → 3.34 %
// without the admission ramp). Every wrap* constructor therefore
// returns a value with exactly the optional interfaces of the value
// it wraps, and the traced pass fails unless its digests equal the
// untraced ones.

// tracedScheduler spans sched.Scheduler.Schedule under the given
// layer name ("pts" or "baselines"), split by outcome so wasted scans
// and preemption planning can be told apart.
type tracedScheduler struct {
	inner sched.Scheduler
	tr    *recorder
	// span names, precomputed per layer
	place, preempt, fail string
	victims              string
}

func (s *tracedScheduler) Name() string              { return s.inner.Name() }
func (s *tracedScheduler) Less(a, b *task.Task) bool { return s.inner.Less(a, b) }

func (s *tracedScheduler) Schedule(ctx *sched.Context, tk *task.Task) (*sched.Decision, error) {
	start := time.Since(s.tr.epoch)
	dec, err := s.inner.Schedule(ctx, tk)
	end := time.Since(s.tr.epoch)
	name := s.place
	switch {
	case err != nil:
		name = s.fail
	case len(dec.Victims) > 0:
		name = s.preempt
		s.tr.add(s.victims, float64(len(dec.Victims)))
	}
	s.tr.beginAt(name, start)
	s.tr.endAt(end)
	return dec, err
}

// wrapScheduler decorates sc for the traced pass, keeping its
// RuntimeInflater extension (Chronus) when it has one.
func wrapScheduler(sc sched.Scheduler, layer string, tr *recorder) sched.Scheduler {
	ts := &tracedScheduler{
		inner: sc, tr: tr,
		place: layer + ".place", preempt: layer + ".preempt", fail: layer + ".fail",
		victims: layer + ".victims",
	}
	if infl, ok := sc.(sched.RuntimeInflater); ok {
		return struct {
			*tracedScheduler
			sched.RuntimeInflater
		}{ts, infl}
	}
	return ts
}

// schedulerLayer names the layer a scheduler belongs to.
func schedulerLayer(sc sched.Scheduler) string {
	if sc.Name() == "GFS" {
		return "pts"
	}
	return "baselines"
}

// tracedQuota spans sched.QuotaPolicy.Quota as "core.quota".
type tracedQuota struct {
	inner sched.QuotaPolicy
	tr    *recorder
}

func (q *tracedQuota) Quota(ctx *sched.QuotaContext) float64 {
	q.tr.begin("core.quota")
	v := q.inner.Quota(ctx)
	q.tr.end()
	return v
}

// wrapQuota decorates q for the traced pass, keeping its
// AdmissionLimiter and EtaReporter extensions when it has them. A nil
// policy (unlimited quota) stays nil.
func wrapQuota(q sched.QuotaPolicy, tr *recorder) sched.QuotaPolicy {
	if q == nil {
		return nil
	}
	tq := &tracedQuota{inner: q, tr: tr}
	lim, isLim := q.(sched.AdmissionLimiter)
	eta, isEta := q.(sched.EtaReporter)
	switch {
	case isLim && isEta:
		return struct {
			*tracedQuota
			sched.AdmissionLimiter
			sched.EtaReporter
		}{tq, lim, eta}
	case isLim:
		return struct {
			*tracedQuota
			sched.AdmissionLimiter
		}{tq, lim}
	case isEta:
		return struct {
			*tracedQuota
			sched.EtaReporter
		}{tq, eta}
	}
	return tq
}

// tracedModel spans forecast.Distributional.PredictDist, the GDE
// inference the quota tick runs once per organization. It is handed
// to gde.Config.Model before training, so the estimator under test is
// the trained one; tr is nil outside traced operations.
type tracedModel struct {
	forecast.Distributional
	tr *recorder
}

func (m *tracedModel) PredictDist(ex forecast.Example) (mu, sigma []float64) {
	m.tr.begin("gde.forecast")
	mu, sigma = m.Distributional.PredictDist(ex)
	m.tr.end()
	return mu, sigma
}

// tracedCollector spans one collector's OnEvent as
// "collector.<name>".
type tracedCollector struct {
	inner gfs.Collector
	tr    *recorder
	span  string
}

func wrapCollectors(cs []gfs.Collector, tr *recorder) []gfs.Collector {
	out := make([]gfs.Collector, len(cs))
	for i, c := range cs {
		out[i] = &tracedCollector{inner: c, tr: tr, span: "collector." + c.Name()}
	}
	return out
}

func (c *tracedCollector) Name() string           { return c.inner.Name() }
func (c *tracedCollector) Begin(meta gfs.RunMeta) { c.inner.Begin(meta) }
func (c *tracedCollector) Finish(rep *gfs.Report) { c.inner.Finish(rep) }
func (c *tracedCollector) OnEvent(e gfs.Event) {
	c.tr.begin(c.span)
	c.inner.OnEvent(e)
	c.tr.end()
}

// tracedSource spans trace.Source.Next as "trace.next".
type tracedSource struct {
	inner trace.Source
	tr    *recorder
}

func (s *tracedSource) Close() error { return s.inner.Close() }
func (s *tracedSource) Next() (*task.Task, error) {
	s.tr.begin("trace.next")
	tk, err := s.inner.Next()
	s.tr.end()
	return tk, err
}

// wrapSource decorates src for the traced pass, keeping its Skipper
// extension (the lenient adapters) when it has one.
func wrapSource(src trace.Source, tr *recorder) trace.Source {
	ts := &tracedSource{inner: src, tr: tr}
	if sk, ok := src.(trace.Skipper); ok {
		return struct {
			*tracedSource
			trace.Skipper
		}{ts, sk}
	}
	return ts
}

// eventTap is the traced pass's observer: it keeps the event log the
// digest is taken from. It runs inside the
// simulator's step, so its time is spanned as "bench.observer" and
// does not leak into the step's self time.
type eventTap struct {
	log sched.EventLog
	tr  *recorder
	// last is when the latest event was observed (offset from the
	// recorder's epoch).
	last time.Duration
}

// digest is the SHA-256 of the recorded event log.
func (t *eventTap) digest() string { return hashHex([]byte(t.log.String())) }

func (t *eventTap) OnEvent(e sched.Event) {
	t.tr.begin("bench.observer")
	t.log.OnEvent(e)
	t.last = time.Since(t.tr.epoch)
	t.tr.endAt(t.last)
}
