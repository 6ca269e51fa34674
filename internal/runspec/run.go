package runspec

import (
	"context"
	"fmt"
	"io"

	gfs "github.com/sjtucitlab/gfs"
)

// Built is a spec lowered onto a ready-to-run engine or federation
// plus its workload. Exactly one of Engine and Federation is set.
type Built struct {
	Engine     *gfs.Engine
	Federation *gfs.Federation
	// Tasks is the generated workload; nil when a trace source
	// replaces it.
	Tasks []*gfs.Task
	// Scenario is the spec's resolved storm profile (nil runs calm).
	Scenario *gfs.Scenario

	name string
	src  gfs.TraceSource
}

// Build is the one spec→engine builder. It fills defaults, validates,
// and builds all run state (cluster, engine or federation, the full
// default collector set, the workload) from scratch — the RunBatch
// determinism contract that lets sessions run concurrently. src, when
// non-nil, is replayed instead of the generated workload; Build takes
// ownership of it (the run closes it, and so does a failed Build).
// obs, when non-nil, receives the run's event stream (member-tagged
// for a federation). extra options apply to a single-cluster engine
// after the spec's own, so they win: gfsim's trained GFS variants ride
// in here. Federation members run the reactive GFS stack and take
// none.
func Build(sp Spec, src gfs.TraceSource, obs gfs.Observer, extra ...gfs.Option) (*Built, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		if src != nil {
			src.Close()
		}
		return nil, err
	}
	scale := sp.Scale()
	b := &Built{name: sp.Scheduler, src: src}
	if sp.Scenario != "" {
		b.Scenario, _ = scale.NamedScenario(sp.Scenario) // validated above
	}
	if sp.Federation {
		// Two members ("west", hit by the scenario, and "east", calm)
		// with spillover between them, and the merged per-member +
		// aggregate report collected.
		b.name = "federation"
		opts := []gfs.FederationOption{
			gfs.WithRoute(routePolicies[sp.Route]()),
			gfs.WithFederationCollectors(nil),
		}
		if obs != nil {
			opts = append(opts, gfs.WithFederationObserver(obs))
		}
		if src != nil {
			opts = append(opts, gfs.WithFederationTraceSource(src))
		} else {
			// Size the workload for the combined two-member capacity.
			both := scale
			both.Nodes *= 2
			b.Tasks = both.Trace(sp.SpotScale)
		}
		b.Federation = gfs.NewFederation(scale.WestEastMembers(b.Scenario), opts...)
		return b, nil
	}
	var opts []gfs.Option
	if sc, quota := schedulers[sp.Scheduler](); sc != nil {
		opts = append(opts, gfs.WithScheduler(sc), gfs.WithQuota(quota))
	}
	if src != nil {
		opts = append(opts, gfs.WithTraceSource(src))
	} else {
		b.Tasks = scale.Trace(sp.SpotScale)
	}
	if sp.Autoscale != "" {
		// A fresh policy per build: the policy keeps per-run state,
		// and builds may execute concurrently across sessions.
		pol, _ := gfs.NamedAutoscaler(sp.Autoscale) // validated above
		opts = append(opts, gfs.WithAutoscaler(pol))
	}
	opts = append(opts, gfs.WithCollectors(gfs.DefaultCollectors()...), gfs.WithScenario(b.Scenario))
	if obs != nil {
		opts = append(opts, gfs.WithObserver(obs))
	}
	b.Engine = gfs.NewEngine(scale.NewCluster(), append(opts, extra...)...)
	return b, nil
}

// Run is the one runner: it executes the built run as a single-spec
// gfs.RunBatchContext, so the batch's panic→error recover — the only
// one in the module — also guards daemon sessions and the CLI, and
// ctx cancellation is honoured at simulator-step granularity. The
// result carries the run's metrics and its collected report (Result
// and Report, or Fed and FedReport for a federation), or Err. A Built
// runs once.
func (b *Built) Run(ctx context.Context) gfs.BatchResult {
	spec := gfs.BatchSpec{Name: b.name}
	if b.Federation != nil {
		spec.SetupFederation = func() (*gfs.Federation, []*gfs.Task) { return b.Federation, b.Tasks }
	} else {
		spec.Setup = func() (*gfs.Engine, []*gfs.Task) { return b.Engine, b.Tasks }
	}
	br := gfs.RunBatchContext(ctx, []gfs.BatchSpec{spec}, gfs.WithWorkers(1))[0]
	if b.src != nil {
		// A run cancelled before it starts never reaches the engine's
		// own close; closing twice is harmless for every source.
		b.src.Close()
	}
	return br
}

// CheckReportFormat rejects anything WriteReport cannot emit.
func CheckReportFormat(format string) error {
	switch format {
	case "text", "jsonl", "csv", "prom":
		return nil
	}
	return fmt.Errorf("unknown report format %q (valid: text, jsonl, csv, prom)", format)
}

// WriteReport writes a finished run's collected report (single or
// federated) in the given format: "text" is the human snapshot,
// "jsonl" the streaming record-per-line export, "csv" the
// per-organization table, "prom" a Prometheus-style text snapshot.
func WriteReport(w io.Writer, br gfs.BatchResult, format string) error {
	// The export surface gfs.Report and gfs.FederationReport share.
	var rep interface {
		fmt.Stringer
		WriteJSONL(io.Writer) error
		WriteCSV(io.Writer) error
		WritePrometheus(io.Writer) error
	} = br.Report
	if br.FedReport != nil {
		rep = br.FedReport
	}
	switch format {
	case "text":
		_, err := io.WriteString(w, rep.String())
		return err
	case "jsonl":
		return rep.WriteJSONL(w)
	case "csv":
		return rep.WriteCSV(w)
	case "prom":
		return rep.WritePrometheus(w)
	}
	return CheckReportFormat(format)
}
