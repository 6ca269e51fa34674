// Command gfstrace generates synthetic workload traces matching the
// paper's production statistics (Table 3) and streams traces between
// formats.
//
// Generation (the default mode):
//
//	gfstrace -days 3 -gpus 2296 -out trace.csv
//	gfstrace -days 1 -out trace.csv.gz        # gzip by extension
//	gfstrace -days 1 -out trace.jsonl         # JSONL by extension
//	gfstrace -regime 2020 -stats
//
// Streaming subcommands, each a constant-memory stdin→stdout pipe
// (or -in/-out files, gzip-transparent in both directions):
//
//	gfstrace convert -from alibaba -to csv < pai_task_table.csv > trace.csv
//	gfstrace convert -window 24h -ratescale 2 < trace.csv > day1-2x.csv
//	gfstrace validate < trace.csv.gz
//	gfstrace stats -in trace.jsonl
//
// convert decodes any supported format (csv, jsonl, alibaba, philly;
// auto-sniffed by default), applies optional transforms (-rebase,
// -ratescale, -window, -sort) and re-encodes as -to (csv or jsonl,
// gzipped when -out ends in .gz). validate checks every record and
// the submission-time ordering replay requires. stats streams the
// Table 3 summary without materializing the trace, as text or (with
// -json) as one JSON object for report tooling.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	gfs "github.com/sjtucitlab/gfs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// errUsage marks a flag error the flag set has already reported.
var errUsage = errors.New("usage")

// run is the command: it dispatches on the subcommand in args[0] (none
// generates a trace), reads traces from stdin when no -in is given,
// writes results to stdout and diagnostics to stderr, and returns the
// exit status (2 for a flag error, 1 for any other failure).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	cmd, rest := runGenerate, args
	if len(args) > 0 {
		switch arg := args[0]; arg {
		case "convert":
			cmd, rest = runConvert, args[1:]
		case "validate":
			cmd, rest = runValidate, args[1:]
		case "stats":
			cmd, rest = runStats, args[1:]
		default:
			// Anything that isn't a flag must be a subcommand; a typo
			// ("stat") must not silently fall through to generation.
			if !strings.HasPrefix(arg, "-") {
				fmt.Fprintf(stderr, "gfstrace: unknown subcommand %q (valid: convert, validate, stats; no subcommand generates a trace)\n", arg)
				return 1
			}
		}
	}
	err := cmd(rest, stdin, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "gfstrace: %v\n", err)
	return 1
}

// parse parses args into fs, which reports its own errors on stderr,
// and refuses positional arguments so a path given without -in cannot
// be silently ignored (and stdin read instead).
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (inputs are read from stdin or -in, outputs written to stdout or -out)", fs.Arg(0))
	}
	return nil
}

// runGenerate is the original trace-generation mode.
func runGenerate(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gfstrace", flag.ContinueOnError)
	days := fs.Int("days", 3, "trace span in days")
	gpus := fs.Float64("gpus", 2296, "cluster GPU capacity for load calibration")
	spotScale := fs.Float64("spotscale", 1, "spot submission multiplier")
	seed := fs.Int64("seed", 1, "generation seed")
	regime := fs.String("regime", "2024", "workload regime: 2024 | 2020")
	out := fs.String("out", "", "write the trace to this path (.csv/.jsonl, .gz to compress; default: stdout stats only)")
	showStats := fs.Bool("stats", false, "print trace statistics")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	cfg := gfs.DefaultTraceConfig()
	cfg.Days = *days
	cfg.ClusterGPUs = *gpus
	cfg.SpotScale = *spotScale
	cfg.Seed = *seed
	reg, err := gfs.ParseTraceRegime(*regime)
	if err != nil {
		return err
	}
	cfg.Regime = reg
	tasks := gfs.GenerateTrace(cfg)
	fmt.Fprintf(stdout, "generated %d tasks over %d day(s)\n", len(tasks), *days)

	if *out != "" {
		if err := gfs.WriteTraceFile(*out, tasks); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if *showStats || *out == "" {
		printStats(stdout, gfs.SummarizeTrace(tasks))
	}
	return nil
}

// openIn opens -in (or stdin) as a trace source with the requested
// format; gzip is sniffed either way. Closing the source closes the
// file, never stdin.
func openIn(path, format string, stdin io.Reader) (gfs.TraceSource, error) {
	f, err := gfs.ParseTraceFormat(format)
	if err != nil {
		return nil, err
	}
	if path == "" {
		return gfs.OpenTraceReader(stdin, f)
	}
	return gfs.OpenTraceFormat(path, f)
}

// openOut builds the output encoder: -out (with gzip-by-extension,
// via the shared trace file-encoder helper) or stdout. The format is
// -to when given, else the path extension, else csv. The returned
// close flushes the encoder and, for -out, closes the file.
func openOut(path, to string, stdout io.Writer) (gfs.TraceEncoder, func() error, error) {
	format := gfs.TraceFormatAuto
	if path == "" {
		format = gfs.TraceFormatCSV
	}
	if to != "" {
		f, err := gfs.ParseTraceFormat(to)
		if err != nil {
			return nil, nil, err
		}
		if f != gfs.TraceFormatCSV && f != gfs.TraceFormatJSONL {
			return nil, nil, fmt.Errorf("-to %s: writable formats are csv and jsonl", to)
		}
		format = f
	}
	if path == "" {
		enc, err := gfs.NewTraceEncoder(stdout, format)
		if err != nil {
			return nil, nil, err
		}
		return enc, enc.Flush, nil
	}
	return gfs.CreateTraceFileEncoder(path, format)
}

// runConvert streams -in → transforms → -out without materializing
// the trace.
func runConvert(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gfstrace convert", flag.ContinueOnError)
	in := fs.String("in", "", "input path (default stdin; gzip auto-detected)")
	out := fs.String("out", "", "output path (default stdout; .gz compresses)")
	from := fs.String("from", "auto", "input format: auto | csv | jsonl | alibaba | philly")
	to := fs.String("to", "", "output format: csv | jsonl (default: by -out extension, else csv)")
	rebase := fs.Bool("rebase", false, "shift submissions so the first task arrives at t=0")
	rate := fs.Float64("ratescale", 1, "divide submission times by this factor (2 = twice the arrival rate)")
	window := fs.Duration("window", 0, "keep only the first window of trace time, measured from the first task (applies before rate scaling), e.g. 24h")
	sortFlag := fs.Bool("sort", false, "sort by submission time (materializes the trace; for unsorted external dumps)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	base, err := openIn(*in, *from, stdin)
	if err != nil {
		return err
	}
	defer base.Close()
	src := base
	if *sortFlag {
		src = gfs.SortTraceBySubmit(src)
	}
	if *rebase {
		src = gfs.RebaseTrace(src, 0)
	}
	// The window is anchored at the first task's submission (so it
	// works on dumps at any epoch) and selects trace time, so it
	// applies before rate scaling compresses the clock.
	if *window > 0 {
		span := gfs.Duration(window.Seconds())
		if span < 1 {
			return fmt.Errorf("-window %v is below the simulator's 1-second resolution", *window)
		}
		src = gfs.HeadWindowTrace(src, span)
	}
	if *rate != 1 {
		src = gfs.RateScaleTrace(src, *rate)
	}

	enc, closeOut, err := openOut(*out, *to, stdout)
	if err != nil {
		return err
	}
	n, err := encodeAll(enc, src)
	if err = cmp.Or(err, closeOut()); err != nil {
		if *out != "" {
			os.Remove(*out) // a partial file is no trace: leave none behind
		}
		return err
	}
	reportSkipped(stderr, base)
	fmt.Fprintf(stderr, "converted %d tasks\n", n)
	return nil
}

// encodeAll encodes every task src yields and returns their count.
func encodeAll(enc gfs.TraceEncoder, src gfs.TraceSource) (int, error) {
	for n := 0; ; n++ {
		tk, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := enc.Encode(tk); err != nil {
			return n, err
		}
	}
}

// runValidate drains the input, checking fields and ordering.
func runValidate(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gfstrace validate", flag.ContinueOnError)
	in := fs.String("in", "", "input path (default stdin; gzip auto-detected)")
	from := fs.String("from", "auto", "input format: auto | csv | jsonl | alibaba | philly")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	src, err := openIn(*in, *from, stdin)
	if err != nil {
		return err
	}
	defer src.Close()
	n, err := gfs.ValidateTrace(src)
	reportSkipped(stderr, src)
	if err != nil {
		return fmt.Errorf("after %d valid tasks: %w", n, err)
	}
	fmt.Fprintf(stdout, "ok: %d tasks, sorted by submission, all fields valid\n", n)
	return nil
}

// runStats streams the Table 3 summary, as text or (with -json) as
// one machine-readable JSON object for report tooling.
func runStats(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gfstrace stats", flag.ContinueOnError)
	in := fs.String("in", "", "input path (default stdin; gzip auto-detected)")
	from := fs.String("from", "auto", "input format: auto | csv | jsonl | alibaba | philly")
	asJSON := fs.Bool("json", false, "emit the summary as one JSON object instead of text")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	src, err := openIn(*in, *from, stdin)
	if err != nil {
		return err
	}
	defer src.Close()
	s, err := gfs.SummarizeTraceSource(src)
	reportSkipped(stderr, src)
	if err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(stdout).Encode(s)
	}
	fmt.Fprintf(stdout, "tasks: %d spanning %.1f h, %.0f GPU-h offered\n",
		s.HPCount+s.SpotCount, s.LastSubmit.Sub(s.FirstSubmit).Hours(), s.TotalGPUSeconds/3600)
	printStats(stdout, s)
	return nil
}

// reportSkipped prints the dropped-row count of lenient adapters.
func reportSkipped(stderr io.Writer, src gfs.TraceSource) {
	if sk, ok := src.(gfs.TraceSkipper); ok && sk.Skipped() > 0 {
		fmt.Fprintf(stderr, "skipped %d unusable rows\n", sk.Skipped())
	}
}

func printStats(w io.Writer, s gfs.TraceStats) {
	fmt.Fprintf(w, "HP tasks:   %6d (%.2f%%)  gang %.2f%%\n",
		s.HPCount, 100*s.HPFrac, 100*s.GangFracHP)
	fmt.Fprintf(w, "Spot tasks: %6d (%.2f%%)  gang %.2f%%\n",
		s.SpotCount, 100*(1-s.HPFrac), 100*s.GangFracSpot)
	fmt.Fprintln(w, "GPU request distribution (fraction of tasks):")
	fmt.Fprintf(w, "%6s %10s %10s\n", "g", "HP", "Spot")
	keys := make([]string, 0, len(s.SizeHistHP))
	for k := range s.SizeHistHP {
		keys = append(keys, k)
	}
	for k := range s.SizeHistSpot {
		if _, ok := s.SizeHistHP[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%6s %9.2f%% %9.2f%%\n", k, 100*s.SizeHistHP[k], 100*s.SizeHistSpot[k])
	}
}
