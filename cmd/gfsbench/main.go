// Command gfsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	gfsbench -experiment all -scale small
//	gfsbench -experiment table5 -scale paper
//
//	gfsbench -experiment replay -trace trace.csv.gz
//
// Experiments: table1, fig2, fig3, fig4, fig5, fig8, fig9, table5,
// table6, fig10, table7, table8, table9, table10, storm, federation,
// replay, report, benefit, autoscale, all. Scales: small
// (128 GPUs), medium (512), paper (2,296). The replay experiment
// compares schedulers on an ingested trace: -trace names the file
// (any format gfstrace reads); without it the experiment synthesizes
// a workload and round-trips it through the gzipped-CSV interchange
// format in memory. The report experiment collects the full metrics
// Report for the GFS stack, pricing its allocation gain over the
// pre-GFS baseline (Fig. 9's accounting). The autoscale experiment
// prices static, reactive and predictive capacity strategies against
// each other on the monthly cost ledger.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/stats"
)

// expEnv carries the command-line environment into experiment
// runners.
type expEnv struct {
	scale     experiments.SimScale
	fc        experiments.FcScale
	tracePath string
}

// experiment is one registry entry: the -experiment id and its
// runner.
type experiment struct {
	id  string
	run func(expEnv) error
}

// registry is the canonical experiment list, in the order
// -experiment all runs them. The usage string, the unknown-id error
// and the package doc comment all enumerate exactly these ids (a test
// keeps the doc comment honest).
var registry = []experiment{
	{"table1", runTable1},
	{"fig2", runFig2},
	{"fig3", runFig3},
	{"fig4", runFig4},
	{"fig5", runFig5},
	{"fig8", runFig8},
	{"fig9", runFig9},
	{"table5", runTable5},
	{"table6", runTable6},
	{"fig10", runFig10},
	{"table7", runTable7},
	{"table8", runTable8},
	{"table9", runTable9},
	{"table10", runTable10},
	{"storm", runStorm},
	{"federation", runFederation},
	{"replay", runReplay},
	{"report", runReport},
	{"benefit", runBenefit},
	{"autoscale", runAutoscale},
}

// experimentIDs returns the registry ids in order.
func experimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// lookup finds a registry entry by id.
func lookup(id string) (experiment, bool) {
	for _, e := range registry {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	exp := flag.String("experiment", "all",
		"experiment id ("+strings.Join(experimentIDs(), ", ")+", or all; comma-separate to combine)")
	scaleName := flag.String("scale", "small", "small | medium | paper")
	fcScaleName := flag.String("fcscale", "", "forecasting scale: small | paper (defaults to -scale)")
	tracePath := flag.String("trace", "", "trace file for the replay experiment (default: synthesized round trip)")
	flag.Parse()

	scale, ok := simScale(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "gfsbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *fcScaleName == "" {
		*fcScaleName = *scaleName
	}
	fc := experiments.SmallFcScale()
	if *fcScaleName == "paper" {
		fc = experiments.PaperFcScale()
	}
	env := expEnv{scale: scale, fc: fc, tracePath: *tracePath}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experimentIDs()
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "gfsbench: unknown experiment %q (valid: %s, all)\n",
				id, strings.Join(experimentIDs(), ", "))
			os.Exit(1)
		}
		start := time.Now()
		if err := e.run(env); err != nil {
			fmt.Fprintf(os.Stderr, "gfsbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func simScale(name string) (experiments.SimScale, bool) {
	switch name {
	case "small":
		return experiments.SmallScale(), true
	case "medium":
		return experiments.MediumScale(), true
	case "paper":
		return experiments.PaperScale(), true
	}
	return experiments.SimScale{}, false
}

func runTable1(env expEnv) error {
	fmt.Println("== Table 1: GPU statistics under the pre-GFS scheduler ==")
	fmt.Print(experiments.FormatTable1(experiments.Table1(env.scale)))
	return nil
}

func runTable5(env expEnv) error {
	for _, w := range []struct {
		name  string
		scale float64
	}{{"Low", 1}, {"Medium", 2}, {"High", 4}} {
		rows, err := experiments.Table5(env.scale, w.scale)
		if err != nil {
			return err
		}
		fmt.Printf("== Table 5 (%s spot workload) ==\n%s\n", w.name, experiments.FormatTable5(rows))
	}
	return nil
}

func runTable6(env expEnv) error {
	rows, err := experiments.Table6(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Table 6: guarantee-hours sensitivity ==\n%s", experiments.FormatTable6(rows))
	return nil
}

func runTable7(env expEnv) error {
	rows, err := experiments.Table7(env.fc)
	if err != nil {
		return err
	}
	fmt.Printf("== Table 7: quantile accuracy & training time ==\n%s", experiments.FormatTable7(rows))
	return nil
}

func runTable8(env expEnv) error {
	rows, err := experiments.Table8(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Table 8: GDE ablation ==\n%s", experiments.FormatAblation(rows))
	return nil
}

func runTable9(env expEnv) error {
	rows, err := experiments.Table9(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Table 9: SQA ablation ==\n%s", experiments.FormatAblation(rows))
	return nil
}

func runTable10(env expEnv) error {
	rows, err := experiments.Table10(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Table 10: PTS ablation ==\n%s", experiments.FormatAblation(rows))
	return nil
}

func runStorm(env expEnv) error {
	rows, err := experiments.StormExperiment(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Storm: schedulers under correlated failures & reclamation storms ==\n%s",
		experiments.FormatStorm(rows))
	return nil
}

func runFederation(env expEnv) error {
	rows, err := experiments.FederationExperiment(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Federation: routed vs isolated clusters under storms ==\n%s",
		experiments.FormatFederation(rows))
	return nil
}

func runReplay(env expEnv) error {
	rep, err := experiments.ReplayExperiment(env.scale, env.tracePath)
	if err != nil {
		return err
	}
	fmt.Printf("== Replay: schedulers on an ingested trace ==\n%s",
		experiments.FormatReplay(rep))
	return nil
}

func runReport(env expEnv) error {
	d, err := experiments.ReportExperiment(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Report: collected metrics, GFS vs pre-GFS baseline ==\n%s",
		experiments.FormatReport(d))
	return nil
}

func runFig2(env expEnv) error {
	d := experiments.Figure2(env.scale)
	fmt.Println("== Figure 2: request-size CDFs ==")
	fmt.Printf("pod-level full-card fraction: 2024 %.1f%%, 2020 %.1f%%\n",
		100*experiments.FullCardFraction(d.Pod2024),
		100*experiments.FullCardFraction(d.Pod2020))
	fmt.Println("2024 pod CDF:")
	printCDF(d.Pod2024)
	fmt.Println("2020 pod CDF:")
	printCDF(d.Pod2020)
	return nil
}

func runFig3(env expEnv) error {
	fmt.Println("== Figure 3: run/queue time by request size ==")
	fmt.Printf("%6s %12s %10s %14s %12s %7s\n", "GPUs", "MedianRun(h)", "P90Run(h)", "MedianQueue(h)", "MeanQueue(h)", "Tasks")
	for _, r := range experiments.Figure3(env.scale) {
		fmt.Printf("%6.1f %12.2f %10.2f %14.3f %12.3f %7d\n",
			r.GPUs, r.MedianRunH, r.P90RunH, r.MedianQueueH, r.MeanQueueH, r.Count)
	}
	return nil
}

func runFig4(env expEnv) error {
	fmt.Println("== Figure 4: per-organization GPU demand (168 h) ==")
	panel := experiments.Figure4(env.scale.Seed)
	for _, name := range []string{"OrgA", "OrgB", "OrgC", "OrgD"} {
		s := panel[name]
		fmt.Printf("%s: min %.1f max %.1f mean %.1f\n",
			name, stats.Min(s), stats.Max(s), stats.Mean(s))
	}
	return nil
}

func runFig5(env expEnv) error {
	fmt.Println("== Figure 5: eviction rate over 4 weeks (static quota) ==")
	d := experiments.Figure5(env.scale, 4)
	for i, w := range d.Weeks {
		fmt.Printf("Week %d: max %.4f mid %.4f min %.4f\n", i+1, w.Max, w.Mid, w.Min)
	}
	return nil
}

func runFig8(env expEnv) error {
	fmt.Println("== Figure 8: allocation heatmaps of three A100 clusters ==")
	for _, c := range experiments.Figure8(env.scale) {
		fmt.Printf("Cluster %s: %d nodes, mean allocation %.2f%%\n",
			c.Name, len(c.Alloc), 100*c.MeanRate)
	}
	return nil
}

func runFig9(env expEnv) error {
	rows, err := experiments.Figure9(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 9: production deployment (pre/post) ==\n%s", experiments.FormatFigure9(rows))
	return nil
}

func runFig10(env expEnv) error {
	rows, err := experiments.Figure10(env.fc)
	if err != nil {
		return err
	}
	fmt.Printf("== Figure 10: forecasting accuracy ==\n%s", experiments.FormatFigure10(rows))
	return nil
}

func runBenefit(expEnv) error {
	_, report := experiments.MonthlyBenefit(nil)
	fmt.Printf("== Monthly benefit (paper deployment deltas) ==\n%s", report)
	return nil
}

func runAutoscale(env expEnv) error {
	rows, err := experiments.AutoscaleExperiment(env.scale)
	if err != nil {
		return err
	}
	fmt.Printf("== Autoscale: static vs reactive vs predictive capacity ==\n%s",
		experiments.FormatAutoscale(rows))
	return nil
}

func printCDF(cdf []stats.CDFPoint) {
	for _, p := range cdf {
		if p.X == 0.5 || p.X == 1 || p.X == 2 || p.X == 4 || p.X == 8 {
			fmt.Printf("  P(g ≤ %4.1f) = %.3f\n", p.X, p.P)
		}
	}
}
