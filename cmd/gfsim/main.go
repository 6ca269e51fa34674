// Command gfsim runs one scheduling simulation and prints its
// metrics, optionally streaming simulator events as they happen.
//
// Usage:
//
//	gfsim -scheduler gfs -nodes 64 -days 2 -spotscale 2
//	gfsim -scheduler yarn -nodes 287 -days 3
//	gfsim -scheduler gfs -hours 4 -events 20
//	gfsim -scheduler gfs -scenario diurnal-storm
//	gfsim -trace trace.csv.gz -scheduler yarn
//	gfsim -federation -scenario zone-cascade -route forecast-aware
//	gfsim -scheduler gfs -report jsonl
//
// Schedulers: gfs, gfs-e, gfs-d, gfs-s, gfs-p, gfs-sp, yarn, chronus,
// lyra, fgd, firstfit. The flags lower onto the run spec gfsd sessions
// submit (internal/runspec) and execute through the same builder and
// runner, so names, defaults, sizing bounds and rejections are the
// daemon's; only the trained gfs* variants — an estimator fitted
// offline, installed over the spec's reactive stack — are the CLI's
// own. The spot guarantee window is set with -hours
// (so -h keeps its conventional meaning: print usage). -scenario
// injects a named storm profile (rack-failure, zone-cascade,
// diurnal-storm, random-storms); runs are deterministic, so repeated
// invocations print identical metrics.
//
// -trace replays a trace file instead of generating a workload: any
// format gfstrace can read (CSV/JSONL, gzipped or not, plus the
// Alibaba and Philly schemas), streamed through the simulator's
// arrival cursor — the file is decoded as the simulated clock
// advances, never loaded whole. It composes with every scheduler, -scenario and
// -federation; -days and -spotscale describe generated workloads
// only, so they are rejected alongside it.
//
// -report attaches the full default collector set to the run and
// emits the collected gfs.Report after the usual metrics: "text" is
// the human snapshot, "jsonl" the streaming record-per-line export,
// "csv" the per-organization table, "prom" a Prometheus-style text
// snapshot. It composes with every scheduler, -trace, -scenario and
// -federation (which emits the merged per-member + aggregate
// report).
//
// -federation runs a two-member federation instead of one cluster:
// "west" (hit by -scenario, when given) and "east" (calm), each a
// -nodes cluster running the reactive GFS stack, with spillover
// migration between them. -route picks the admission policy:
// least-loaded, cheapest-spot, forecast-aware or round-robin.
//
// -autoscale attaches the built-in capacity autoscaler ("predictive"
// or "reactive"): it provisions and retires nodes mid-run across the
// spot → on-demand → reserved tier ladder, and its capacity churn
// shows up in -events output as NodeProvisioned / NodeRetired. It
// composes with every scheduler, -trace, -scenario and -report;
// federation members manage capacity per engine, so it is rejected
// alongside -federation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/core"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/runspec"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// gfsVariants are the trained GFS stacks -scheduler accepts on top of
// the spec's scheduler table.
var gfsVariants = map[string]experiments.GFSVariant{
	"gfs":    experiments.GFSFull,
	"gfs-e":  experiments.GFSNaiveForecast,
	"gfs-d":  experiments.GFSStaticEta,
	"gfs-s":  experiments.GFSSimpleScore,
	"gfs-p":  experiments.GFSRandomPreempt,
	"gfs-sp": experiments.GFSSimpleBoth,
}

// invocation is a parsed command line: the run spec plus the knobs
// that only shape what gfsim trains and prints.
type invocation struct {
	spec runspec.Spec
	// trained is set for the gfs* schedulers: variant and hours then
	// pick the estimator-backed stack installed over the spec's.
	trained bool
	variant experiments.GFSVariant
	hours   int
	events  int
	trace   string
	report  string
}

// parseFlags lowers the command line onto an invocation, rejecting
// flag combinations a spec cannot express and everything the spec
// validator rejects. Flag defaults are the spec's, and — as in a spec
// — a zero value means the default.
func parseFlags(fs *flag.FlagSet, args []string) (*invocation, error) {
	var def runspec.Spec
	def.Normalize()
	scheduler := fs.String("scheduler", def.Scheduler, "scheduler to run")
	nodes := fs.Int("nodes", def.Nodes, "8-GPU nodes in the cluster")
	days := fs.Int("days", def.Days, "trace span in days")
	spotScale := fs.Float64("spotscale", def.SpotScale, "spot submission multiplier (1/2/4)")
	seed := fs.Int64("seed", def.Seed, "trace seed")
	guarantee := fs.Int("hours", 1, "spot guarantee hours (GFS variants)")
	events := fs.Int("events", 0, "print the first N simulator events")
	scenario := fs.String("scenario", "", "named scenario profile (rack-failure, zone-cascade, diurnal-storm, random-storms)")
	federation := fs.Bool("federation", false, "run a two-member federation (west = -scenario, east calm)")
	route := fs.String("route", def.Route, "federation route policy (least-loaded, cheapest-spot, forecast-aware, round-robin)")
	tracePath := fs.String("trace", "", "replay this trace file (streamed; gzip and format auto-detected) instead of generating a workload")
	report := fs.String("report", "", "emit the collected run report in this format (text, jsonl, csv, prom)")
	autoscalePolicy := fs.String("autoscale", "", "capacity autoscaler policy (predictive, reactive); provisions/retires nodes mid-run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case *tracePath != "" && (f.Name == "days" || f.Name == "spotscale"):
			// Generation knobs have no meaning for a replayed file.
			err = fmt.Errorf("-%s does not apply to -trace (the file fixes the workload)", f.Name)
		case *federation && (f.Name == "scheduler" || f.Name == "hours"):
			// Reject flags that would otherwise be silently ignored.
			err = fmt.Errorf("-%s does not apply to -federation (members run the reactive GFS stack)", f.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	if *report != "" {
		if err := runspec.CheckReportFormat(*report); err != nil {
			return nil, err
		}
	}

	inv := &invocation{
		spec: runspec.Spec{
			Scheduler: *scheduler, Nodes: *nodes, Days: *days, SpotScale: *spotScale, Seed: *seed,
			Scenario: *scenario, Federation: *federation, Route: *route, Autoscale: *autoscalePolicy,
		},
		hours: *guarantee, events: *events, trace: *tracePath, report: *report,
	}
	if v, ok := gfsVariants[*scheduler]; ok {
		// The spec names the reactive stack; main installs the trained
		// variant over it (federation members stay reactive).
		inv.spec.Scheduler = "gfs"
		inv.variant, inv.trained = v, !*federation
	}
	inv.spec.Normalize()
	return inv, inv.spec.Validate()
}

func main() {
	inv, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	sp := inv.spec

	var sys *core.System
	var extra []gfs.Option
	if inv.trained {
		scale := sp.Scale()
		est, err := trainFor(scale, inv.variant)
		if err != nil {
			fail(err)
		}
		sys = scale.NewGFS(est, inv.variant, inv.hours)
		extra = scale.GFSOptions(sys)
	}
	var src gfs.TraceSource
	if inv.trace != "" {
		if src, err = gfs.OpenTrace(inv.trace); err != nil {
			fail(err)
		}
	}
	var obs gfs.Observer
	if remaining := inv.events; remaining > 0 {
		obs = gfs.ObserverFunc(func(e gfs.Event) {
			if remaining > 0 {
				fmt.Println(e)
				remaining--
			}
		})
	}
	run, err := runspec.Build(sp, src, obs, extra...)
	if err != nil {
		fail(err)
	}

	workload := fmt.Sprintf("trace: %d tasks over %d day(s)", len(run.Tasks), sp.Days)
	if inv.trace != "" {
		workload = fmt.Sprintf("replaying %s (streamed)", inv.trace)
	}
	if sp.Federation {
		if run.Scenario != nil {
			fmt.Printf("scenario on west: %s (%d actions)\n", sp.Scenario, run.Scenario.Len())
		}
		fmt.Printf("federation: 2 × %d nodes × 8 GPUs; route %s; %s\n", sp.Nodes, sp.Route, workload)
	} else {
		fmt.Printf("cluster: %d nodes × 8 GPUs; %s\n", sp.Nodes, workload)
		if sp.Autoscale != "" {
			fmt.Printf("autoscale: %s policy\n", sp.Autoscale)
		}
		if run.Scenario != nil {
			fmt.Printf("scenario: %s (%d actions)\n", sp.Scenario, run.Scenario.Len())
		}
	}

	out := run.Run(context.Background())
	if out.Err != nil {
		fail(out.Err)
	}
	if out.Fed != nil {
		for _, m := range out.Fed.Members {
			fmt.Printf("\n-- member %s (routed %d, migrated in %d / out %d, goodput %.1f GPU-h) --\n",
				m.Name, m.Routed, m.MigratedIn, m.MigratedOut, m.GoodputGPUSeconds/3600)
			printResult(m.Result)
		}
		fmt.Printf("\nfederation total: goodput %.1f GPU-h, %d migrations, %d saturations, %d unfinished\n",
			out.Fed.GoodputGPUSeconds/3600, out.Fed.Migrations, out.Fed.Saturations, out.Fed.Unfinished)
	} else {
		if sys != nil {
			fmt.Printf("final η: %.3f\n", sys.Quota.Allocator().Eta())
		}
		printResult(out.Result)
	}
	if inv.report != "" {
		if err := runspec.WriteReport(os.Stdout, out, inv.report); err != nil {
			fail(err)
		}
	}
}

func trainFor(scale experiments.SimScale, variant experiments.GFSVariant) (*gde.Estimator, error) {
	if variant == experiments.GFSNaiveForecast {
		return scale.NaiveEstimator()
	}
	return scale.TrainEstimator()
}

func printResult(res *sched.Result) {
	fmt.Printf("scheduler: %s\n", res.SchedulerName)
	fmt.Printf("HP   tasks: %5d  JCT %9.1fs  p99 %9.1fs  JQT %7.1fs  unfinished %d\n",
		res.HP.Count, res.HP.JCT, res.HP.JCTP99, res.HP.JQT, res.UnfinishedHP)
	fmt.Printf("Spot tasks: %5d  JCT %9.1fs  JQT %7.1fs  evictions %d (e = %.2f%%)  unfinished %d\n",
		res.Spot.Count, res.Spot.JCT, res.Spot.JQT,
		res.Spot.Evictions, 100*res.Spot.EvictionRate, res.UnfinishedSpot)
	fmt.Printf("allocation rate: %.2f%%   wasted GPU-hours: %.1f\n",
		100*res.AllocationRate, res.WastedGPUSeconds/3600)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gfsim: %v\n", err)
	os.Exit(1)
}
