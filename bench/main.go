// Command bench is the repository's benchmark: seven named workloads
// over the GFS simulator and the gfsd daemon, each run in a process of
// its own, with the end-to-end metrics printed by an untraced pass
// and per-layer attribution by a traced pass. See README.md.
//
//	go run . -workload paper_gfs -seed 17 -seconds 12 -trace 0
//	go run .                      # every workload, both passes
//	go run . -aa 3                # A/A: spread of each metric vs its bound
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	c := &config{}
	var trace, aa int
	var update, printSpec bool
	flag.StringVar(&c.workload, "workload", "", "workload to run in this process (default: all, one child process each)")
	flag.Int64Var(&c.seed, "seed", 17, "workload seed: perturbs the reference traces")
	flag.Float64Var(&c.seconds, "seconds", runSeconds, "how long each run measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&c.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	flag.BoolVar(&c.quick, "quick", false, "smoke profile: small clusters, 40 sessions, no pinned digests")
	flag.IntVar(&aa, "aa", 0, "run every workload N times untraced and fail if a metric's spread exceeds its bound")
	flag.BoolVar(&update, "update-expected", false, "rewrite expected.json in the current directory from this build's outputs")
	flag.BoolVar(&printSpec, "print-spec", false, "print the content of BENCHMARK.json and exit")
	flag.Parse()
	c.traced = trace == 1
	c.procs = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(c.procs)

	var err error
	switch {
	case printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		err = enc.Encode(benchmarkSpec())
	case update:
		err = updateExpected(c, ".")
	case c.workload != "":
		err = runOne(c)
	case aa > 0:
		err = runAA(c, aa)
	default:
		err = runAll(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result as
// the last line of standard output.
func runOne(c *config) error {
	fmt.Fprintf(os.Stderr, "bench %s: seed %d, %g s, trace %v, %s, GOMAXPROCS %d, %s\n",
		c.workload, c.seed, c.seconds, c.traced, runtime.Version(), c.procs, cpuModel())
	res, err := run(c)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child runs one workload in a fresh process of this binary, so peak
// memory and collector state are the workload's own, and parses the
// result from the last line of its output.
func child(c *config, name string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if c.traceOut != "" {
			ext := filepath.Ext(c.traceOut)
			args = append(args, "-trace-out", strings.TrimSuffix(c.traceOut, ext)+"."+name+ext)
		}
	}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload, untraced then traced, and prints both
// tables.
func runAll(c *config) error {
	failed := false
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			res, err := child(c, w.name, traced)
			if err != nil {
				return err
			}
			pass := "untraced"
			specs := make([]string, 0, len(res.Metrics))
			if traced {
				pass = "traced"
				for _, l := range perLayerSpecs {
					specs = append(specs, l.Name)
				}
			} else {
				for _, m := range endToEndSpecs {
					specs = append(specs, m.Name)
				}
			}
			fmt.Printf("%s (%s): correct=%v attempted=%d failed=%d\n", w.name, pass, res.Correct, res.Attempted, res.Failed)
			for _, name := range specs {
				if m := res.Metrics[name]; !traced || m.Value != 0 {
					fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
				}
			}
			failed = failed || !res.Correct
		}
	}
	if failed {
		return fmt.Errorf("a workload's outputs were incorrect")
	}
	return nil
}

// runAA runs the untraced pass of every workload n times and prints,
// per workload and end-to-end metric, min/median/max and the quartile
// spread against the metric's bound. It fails when a spread (other
// than set-up's, which the contract exempts) exceeds its bound.
func runAA(c *config, n int) error {
	var over []string
	for _, w := range workloads() {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			u := *c
			u.seed = c.seed + int64(i)
			res, err := child(&u, w.name, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: incorrect outputs on seed %d", w.name, u.seed)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", w.name, n, c.seed, c.seed+int64(n)-1)
		for _, m := range endToEndSpecs {
			xs := values[m.Name]
			spread := quartileSpread(xs)
			verdict := "ok"
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "OVER"
				over = append(over, w.name+"/"+m.Name)
			}
			med := median(xs) // sorts xs
			fmt.Printf("  %-16s min %12.6g  median %12.6g  max %12.6g %-5s spread %6.2f%% of bound %4.0f%%  %s\n",
				m.Name, xs[0], med, xs[len(xs)-1], m.Unit, 100*spread, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}
