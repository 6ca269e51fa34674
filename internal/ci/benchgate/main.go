// Command benchgate is the CI benchmark-regression gate. It parses
// `go test -bench` output (typically BenchmarkSim and
// BenchmarkFederation at -benchtime=100x -count=6), takes the median
// ns/op per benchmark, writes the result as a JSON artifact, and —
// when given a committed baseline — fails if any median regressed
// beyond the threshold.
//
// Usage:
//
//	go test -run XXX -bench 'BenchmarkSim$|BenchmarkFederation$' \
//	    -benchtime=100x -count=6 . | tee bench.txt
//	go run ./internal/ci/benchgate -input bench.txt \
//	    -out BENCH_$(git rev-parse --short HEAD).json \
//	    -baseline BENCH_baseline.json
//
// To refresh the committed baseline after an intentional performance
// change (or to seed it for a new runner class), download the
// BENCH_<sha>.json artifact from a green bench-regression run and
// commit it as BENCH_baseline.json. Medians are only comparable on
// similar hardware, so each report records the CPU model it was
// measured on and the gate compares only when the models match —
// a baseline from foreign hardware produces a loud warning (and a
// passing exit) instead of a hardware-delta verdict.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Report is the persisted artifact: per-benchmark medians plus the
// environment they were measured in.
type Report struct {
	SHA  string `json:"sha,omitempty"`
	GoOS string `json:"goos"`
	// CPU is the processor model the run was measured on, as printed
	// by `go test -bench` (its `cpu:` header); absolute ns/op medians
	// are only comparable between matching CPUs.
	CPU        string               `json:"cpu,omitempty"`
	GoArch     string               `json:"goarch"`
	Benchmarks map[string]BenchStat `json:"benchmarks"`
}

// BenchStat summarizes one benchmark's repeated runs. Allocation
// medians are present only for benchmarks that report them (via
// -benchmem or b.ReportAllocs); unlike ns/op they are hardware-
// independent, so the allocs gate arms even across CPU models.
type BenchStat struct {
	MedianNsOp      float64   `json:"median_ns_op"`
	SamplesNsOp     []float64 `json:"samples_ns_op"`
	MedianAllocsOp  float64   `json:"median_allocs_op,omitempty"`
	SamplesAllocsOp []float64 `json:"samples_allocs_op,omitempty"`
}

func main() {
	input := flag.String("input", "", "file holding `go test -bench` output (default stdin)")
	out := flag.String("out", "", "write the parsed report to this JSON file")
	baseline := flag.String("baseline", "", "compare against this committed baseline report")
	threshold := flag.Float64("threshold", 0.15, "allowed median regression fraction")
	sha := flag.String("sha", os.Getenv("GITHUB_SHA"), "commit the report describes")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	report, err := parseBench(r)
	if err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}
	report.SHA = *sha

	for _, name := range sortedNames(report.Benchmarks) {
		st := report.Benchmarks[name]
		fmt.Printf("%-24s median %12.0f ns/op over %d runs\n",
			name, st.MedianNsOp, len(st.SamplesNsOp))
	}

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		var regressions []string
		if comparable(base, report) {
			regressions = gate(base, report, *threshold)
		} else {
			fmt.Fprintf(os.Stderr,
				"benchgate: WARNING: baseline measured on %q/%s, this run on %q/%s — "+
					"absolute ns/op medians are not comparable across hardware; time gate skipped. "+
					"Re-seed BENCH_baseline.json from this run's artifact to arm it.\n",
				base.CPU, base.GoArch, report.CPU, report.GoArch)
		}
		// Allocation counts are hardware-independent, so the allocs
		// gate arms regardless of the CPU match.
		regressions = append(regressions, gateAllocs(base, report, *threshold)...)
		if len(regressions) > 0 {
			for _, msg := range regressions {
				fmt.Fprintln(os.Stderr, "REGRESSION:", msg)
			}
			os.Exit(1)
		}
		fmt.Printf("bench gate passed (threshold %.0f%%)\n", 100**threshold)
	}
}

// parseBench extracts ns/op samples from `go test -bench` output.
// Lines look like:
//
//	BenchmarkSim-8   100   2274931 ns/op   48.38 allocPct
//
// The -N GOMAXPROCS suffix is stripped so reports compare across
// runner shapes.
func parseBench(r io.Reader) (*Report, error) {
	report := &Report{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Benchmarks: map[string]BenchStat{},
	}
	samples := map[string][]float64{}
	allocSamples := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			report.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		nsIdx, allocIdx := -1, -1
		for i, f := range fields {
			switch f {
			case "ns/op":
				nsIdx = i - 1
			case "allocs/op":
				allocIdx = i - 1
			}
		}
		if nsIdx < 1 {
			continue
		}
		ns, err := strconv.ParseFloat(fields[nsIdx], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		samples[name] = append(samples[name], ns)
		if allocIdx > 0 {
			if al, err := strconv.ParseFloat(fields[allocIdx], 64); err == nil {
				allocSamples[name] = append(allocSamples[name], al)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, ss := range samples {
		st := BenchStat{MedianNsOp: median(ss), SamplesNsOp: ss}
		if as := allocSamples[name]; len(as) > 0 {
			st.MedianAllocsOp = median(as)
			st.SamplesAllocsOp = as
		}
		report.Benchmarks[name] = st
	}
	return report, nil
}

// median returns the middle value (mean of the middle two for even
// counts) of a non-empty sample set.
func median(ss []float64) float64 {
	s := append([]float64(nil), ss...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gate compares each baseline benchmark's median against the current
// report and returns one message per regression beyond the threshold.
// Benchmarks missing from the current run fail the gate too — a
// silently dropped benchmark must not pass as "no regression".
func gate(base, cur *Report, threshold float64) []string {
	var out []string
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline but not in this run", name))
			continue
		}
		if b.MedianNsOp <= 0 {
			continue
		}
		ratio := c.MedianNsOp / b.MedianNsOp
		status := "ok"
		if ratio > 1+threshold {
			status = "FAIL"
			out = append(out, fmt.Sprintf("%s: median %0.f ns/op vs baseline %0.f (%+.1f%%, allowed +%.0f%%)",
				name, c.MedianNsOp, b.MedianNsOp, 100*(ratio-1), 100*threshold))
		}
		fmt.Printf("%-24s %12.0f → %12.0f ns/op (%+6.1f%%) %s\n",
			name, b.MedianNsOp, c.MedianNsOp, 100*(ratio-1), status)
	}
	return out
}

// gateAllocs compares allocs/op medians for every benchmark both
// reports carry allocation counts for, at the same threshold as the
// time gate. A benchmark that stopped reporting allocations fails —
// dropping b.ReportAllocs must not pass as "no regression".
func gateAllocs(base, cur *Report, threshold float64) []string {
	var out []string
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		if len(b.SamplesAllocsOp) == 0 {
			continue
		}
		c, ok := cur.Benchmarks[name]
		if !ok || len(c.SamplesAllocsOp) == 0 {
			out = append(out, fmt.Sprintf("%s: baseline has allocs/op but this run reports none", name))
			continue
		}
		if b.MedianAllocsOp <= 0 {
			continue
		}
		ratio := c.MedianAllocsOp / b.MedianAllocsOp
		status := "ok"
		if ratio > 1+threshold {
			status = "FAIL"
			out = append(out, fmt.Sprintf("%s: median %0.f allocs/op vs baseline %0.f (%+.1f%%, allowed +%.0f%%)",
				name, c.MedianAllocsOp, b.MedianAllocsOp, 100*(ratio-1), 100*threshold))
		}
		fmt.Printf("%-24s %12.0f → %12.0f allocs/op (%+6.1f%%) %s\n",
			name, b.MedianAllocsOp, c.MedianAllocsOp, 100*(ratio-1), status)
	}
	return out
}

// comparable reports whether two reports were measured on matching
// hardware (same CPU model and architecture), the precondition for
// comparing absolute ns/op medians. A baseline without a recorded CPU
// (hand-written, or from a pre-CPU-field run) never matches.
func comparable(base, cur *Report) bool {
	return base.CPU != "" && base.CPU == cur.CPU && base.GoArch == cur.GoArch
}

func sortedNames(m map[string]BenchStat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
