// Bench pins: names only bench/ (its own module) compiles against,
// each a forwarder or its unchanged body, which no program here may
// use (TestBenchPinsHaveNoProgramCaller): programs replay through
// RunBatch and export a report as JSONL. ROADMAP item 1a deletes it.

package gfs

import (
	"context"
	"errors"
	"io"
	"strconv"

	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// WithShards is accepted and ignored: a run is serial (the sharded
// core measured slower and was deleted; docs/performance.md, "Sharding
// verdict"). Bench pin (ROADMAP item 1a).
//
// Deprecated: the option has no effect.
func WithShards(n int) Option {
	return func(*Engine) {}
}

// AssembleReport builds a Report directly from collectors attached
// (WithCollectors) to a run whose engine the caller does not hold.
// Bench pin (ROADMAP item 1a); programs read BatchResult.Report.
func AssembleReport(cs ...Collector) *Report {
	rep := &Report{}
	for _, c := range cs {
		c.Finish(rep)
	}
	if rep.Summary != nil {
		rep.Scheduler = rep.Summary.Scheduler
	}
	return rep
}

// WriteTraceCSV writes a trace in the package's CSV interchange
// format. Bench pin (ROADMAP item 1a).
func WriteTraceCSV(w io.Writer, tasks []*Task) error { return trace.WriteCSV(w, tasks) }

// Config exposes the engine's simulation configuration. Bench pin
// (ROADMAP item 1a).
func (e *Engine) Config() sched.SimConfig { return e.cfg }

// RunTrace replays the engine's attached trace source
// (WithTraceSource) as Run would the same tasks, and closes the
// source. Bench pin (ROADMAP item 1a); programs replay via RunBatch.
func (e *Engine) RunTrace() (*Result, error) {
	if e.src == nil {
		return nil, errors.New("gfs: RunTrace needs WithTraceSource")
	}
	return e.run(context.Background(), nil)
}

// WriteQuotaCSV writes the quota trajectory: one row per quota tick
// (at, member, quota, spot_used, eta); an unlimited quota renders as
// the string "unlimited". The bytes are encoding/csv's for the same
// fields. Bench pin (ROADMAP item 1a).
func (r *Report) WriteQuotaCSV(w io.Writer) error {
	return export(w, func(e *exporter) error {
		if _, err := e.WriteString("at,member,quota,spot_used,eta\n"); err != nil {
			return err
		}
		if r.Quota == nil {
			return nil
		}
		for i := range r.Quota.Samples {
			s := &r.Quota.Samples[i]
			b := appendCSVTick(e.line[:0], s.At, s.Member)
			if s.Quota.unlimited() {
				b = append(b, ",unlimited"...)
			} else {
				b = appendCSVFloats(b, float64(s.Quota))
			}
			e.line = append(appendCSVFloats(b, s.SpotUsed, s.Eta), '\n')
			if err := e.writeLine(); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteTimelineCSV writes the allocation timeline: one row per step
// (at, member, used, capacity, rate). The bytes are encoding/csv's for
// the same fields. Bench pin (ROADMAP item 1a).
func (r *Report) WriteTimelineCSV(w io.Writer) error {
	return export(w, func(e *exporter) error {
		if _, err := e.WriteString("at,member,used,capacity,rate\n"); err != nil {
			return err
		}
		for i := range r.Timeline {
			p := &r.Timeline[i]
			b := appendCSVTick(e.line[:0], p.At, p.Member)
			e.line = append(appendCSVFloats(b, p.Used, p.Capacity, p.Rate), '\n')
			if err := e.writeLine(); err != nil {
				return err
			}
		}
		return nil
	})
}

// appendCSVTick opens a per-tick CSV row: the time, then the member.
func appendCSVTick(dst []byte, at Time, member string) []byte {
	dst = strconv.AppendInt(dst, int64(at), 10)
	dst = append(dst, ',')
	return appendCSVField(dst, member)
}

// appendCSVFloats appends each float as a further field of a row.
func appendCSVFloats(dst []byte, fs ...float64) []byte {
	for _, f := range fs {
		dst = appendFloat(append(dst, ','), f)
	}
	return dst
}
