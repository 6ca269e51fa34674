// Command gfsfcast trains and evaluates GPU demand forecasting
// models on the synthetic organization panel.
//
// Usage:
//
//	gfsfcast -model orglinear -weeks 4
//	gfsfcast -model all -weeks 3 -l 48 -h 6
//
// Models: orglinear, dlinear, transformer, informer, autoformer,
// fedformer, deepar, all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/forecast"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status (2 for a usage
// error, 1 for a failed fit).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gfsfcast", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "orglinear", "model name or 'all'")
	weeks := fs.Int("weeks", 3, "weeks of hourly training data per org")
	l := fs.Int("l", 48, "history window (hours)")
	h := fs.Int("h", 6, "forecast horizon (hours)")
	deepEpochs := fs.Int("deepepochs", 4, "epochs for attention/RNN models")
	linEpochs := fs.Int("linepochs", 25, "epochs for linear models")
	seed := fs.Int64("seed", 9, "data seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fc := experiments.FcScale{
		Weeks: *weeks, L: *l, H: *h,
		DeepEpochs: *deepEpochs, LinearEpochs: *linEpochs, Seed: *seed,
	}
	train, test := fc.Panel()
	fmt.Fprintf(stdout, "panel: %d train / %d test windows (L=%d, H=%d)\n",
		len(train), len(test), *l, *h)

	models := fc.Models()
	if *model != "all" {
		var pick forecast.Forecaster
		for _, m := range models {
			if strings.EqualFold(m.Name(), *model) {
				pick = m
				break
			}
		}
		if pick == nil {
			fmt.Fprintf(stderr, "gfsfcast: unknown model %q\n", *model)
			return 2
		}
		models = []forecast.Forecaster{pick}
	}
	fmt.Fprintf(stdout, "%-12s %10s %12s %10s %8s %9s\n", "Model", "MAE", "MSE", "RMSE", "MAPE", "Train(s)")
	for _, m := range models {
		start := time.Now()
		if err := m.Fit(train); err != nil {
			fmt.Fprintf(stderr, "gfsfcast: %s: %v\n", m.Name(), err)
			return 1
		}
		acc := forecast.Evaluate(m, test)
		fmt.Fprintf(stdout, "%-12s %10.3f %12.3f %10.3f %8.4f %9.2f\n",
			m.Name(), acc.MAE, acc.MSE, acc.RMSE, acc.MAPE, time.Since(start).Seconds())
		if d, ok := m.(forecast.Distributional); ok {
			fmt.Fprintf(stdout, "%-12s 0.95-MAQE %.4f   0.9-MAQE %.4f   0.9-coverage %.2f\n",
				"", forecast.MAQE(d, test, 0.95), forecast.MAQE(d, test, 0.90),
				forecast.Coverage(d, test, 0.90))
		}
	}
	return 0
}
