package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/core"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// TestSmoke runs every workload's quick profile through both passes
// and checks the printed result against the benchmark contract: every
// metric BENCHMARK.json lists and no other, well-formed names, no
// failed operation, no end-to-end metric at zero.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			c := &config{workload: w.name, seed: 17, seconds: 0.05, traced: traced, quick: true, procs: 2}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, l := range perLayerSpecs {
					want[l.Name] = l.Unit
				}
			} else {
				for _, m := range endToEndSpecs {
					want[m.Name] = m.Unit
				}
			}
			for n, m := range res.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s: metric name %q is malformed", w.name, n)
				}
				if unit, ok := want[n]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) is not in the spec", w.name, traced, n, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, n, m.Value)
				}
			}
			for n := range want {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, n)
				}
			}
			if traced {
				if share := res.Metrics["sched.attributed_share"].Value; share < 0.95 {
					t.Errorf("%s: only %.1f%% of the operations' time is attributed to a layer", w.name, 100*share)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps the committed BENCHMARK.json equal to the
// spec in spec.go and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	spec := benchmarkSpec()
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if seen[m.Name] || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range spec.PerLayer {
		if seen[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
		seen[m.Name] = true
	}
	for _, w := range spec.Workloads {
		if seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v breaks the contract", w)
		}
		seen[w.Name] = true
	}

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(spec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run . -print-spec > ../BENCHMARK.json`")
	}
}

// TestGofmt keeps the package formatted.
func TestGofmt(t *testing.T) {
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil {
		t.Skipf("gofmt unavailable: %v", err)
	}
	if len(bytes.TrimSpace(out)) > 0 {
		t.Errorf("gofmt -l reports:\n%s", out)
	}
}

// TestSelfTime checks self-time subtraction with nested and adjacent
// children.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	r := newRecorder("leaf")
	r.beginAt("root", 0)
	r.beginAt("child", 10*ms) // nested: child holds a leaf
	r.beginAt("leaf", 12*ms)
	r.endAt(15 * ms)
	r.endAt(30 * ms)
	r.beginAt("child", 30*ms) // adjacent: starts where its sibling ended
	r.endAt(40 * ms)
	r.beginAt("leaf", 50*ms) // a leaf directly under the root
	r.endAt(55 * ms)
	r.endAt(100 * ms)

	for _, want := range []struct {
		name        string
		count       int64
		total, self time.Duration
	}{
		{"root", 1, 100 * ms, 65 * ms},
		{"child", 2, 30 * ms, 27 * ms},
		{"leaf", 2, 8 * ms, 8 * ms},
	} {
		got := r.of(want.name)
		if got.count != want.count || got.total != want.total || got.self != want.self {
			t.Errorf("%s: count %d total %v self %v, want %d %v %v",
				want.name, got.count, got.total, got.self, want.count, want.total, want.self)
		}
	}
	// Self times of a tree sum to the root's duration.
	if sum := r.of("root").self + r.of("child").self + r.of("leaf").self; sum != 100*ms {
		t.Errorf("self times sum to %v, want 100ms", sum)
	}
	if got := r.of("leaf").durations; len(got) != 2 || got[0] != 3*ms || got[1] != 5*ms {
		t.Errorf("kept durations %v", got)
	}
	if len(r.spans) != 5 || r.spans[2].parent != 1 || r.spans[1].parent != 0 || r.spans[0].parent != -1 {
		t.Errorf("span records %+v", r.spans)
	}

	// Merging re-bases parents and sums aggregates.
	o := newRecorder()
	o.beginAt("root", 0)
	o.beginAt("child", 1*ms)
	o.endAt(2 * ms)
	o.endAt(4 * ms)
	r.merge(o)
	if got := r.of("root"); got.count != 2 || got.self != 68*ms {
		t.Errorf("merged root: %+v", got)
	}
	if p := r.spans[6].parent; p != 5 {
		t.Errorf("merged child's parent = %d, want 5", p)
	}
	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil || len(file.TraceEvents) != 7 {
		t.Errorf("trace file: %d events, err %v", len(file.TraceEvents), err)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{1, 99, 50}, {19, 99, 50}, {99, 99, 50}, {100, 99, 90}, {199, 99, 90},
		{200, 99, 95}, {999, 99, 95}, {1000, 99, 99}, {5000, 95, 95}, {150, 95, 90},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g", got)
	}
	if got := percentile(xs, 99); got != 10 {
		t.Errorf("p99 = %g", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g", got)
	}
}

// TestQuartileSpread checks the acceptance statistic against values
// computed with Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([3, 5], n=4) = [2.5, 4.0, 5.5]
	got = quartileSpread([]float64{3, 5})
	if want := (5.5 - 2.5) / 4; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tgfsbench\nVmPeak:\t 1234567 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
	if rss, err := peakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB = %v, %v", rss, err)
	}
}

// TestDecoratorsKeepInterfaces checks that a wrapped value has exactly
// the optional interfaces of the value it wraps.
func TestDecoratorsKeepInterfaces(t *testing.T) {
	tr := newRecorder()
	for _, q := range []sched.QuotaPolicy{
		core.New(core.DefaultOptions()).Quota, sched.StaticQuota{Fraction: 0.2}, sched.UnlimitedQuota{},
	} {
		w := wrapQuota(q, tr)
		_, wantLim := q.(sched.AdmissionLimiter)
		_, gotLim := w.(sched.AdmissionLimiter)
		_, wantEta := q.(sched.EtaReporter)
		_, gotEta := w.(sched.EtaReporter)
		if wantLim != gotLim || wantEta != gotEta {
			t.Errorf("%T: limiter %v→%v, eta %v→%v", q, wantLim, gotLim, wantEta, gotEta)
		}
	}
	if wrapQuota(nil, tr) != nil {
		t.Error("a nil quota policy must stay nil")
	}
	if _, ok := sched.QuotaPolicy(core.New(core.DefaultOptions()).Quota).(sched.AdmissionLimiter); !ok {
		t.Error("core.Quota no longer limits admission: the decorator test lost its subject")
	}
	for _, sc := range []sched.Scheduler{
		baselines.NewChronus(), baselines.NewYARNCS(), core.New(core.DefaultOptions()).Scheduler,
	} {
		_, want := sc.(sched.RuntimeInflater)
		_, got := wrapScheduler(sc, schedulerLayer(sc), tr).(sched.RuntimeInflater)
		if want != got {
			t.Errorf("%s: inflater %v→%v", sc.Name(), want, got)
		}
	}
	if _, ok := sched.Scheduler(baselines.NewChronus()).(sched.RuntimeInflater); !ok {
		t.Error("Chronus no longer inflates runtimes: the decorator test lost its subject")
	}
	src := trace.SliceSource(nil)
	_, want := src.(trace.Skipper)
	if _, got := wrapSource(src, tr).(trace.Skipper); want != got {
		t.Errorf("source: skipper %v→%v", want, got)
	}
}

// TestSetupMatchesRunGFS checks that the benchmark's copy of the
// unexported demand-history helper builds the run RunGFS builds.
func TestSetupMatchesRunGFS(t *testing.T) {
	s := paperScale(true)
	c := &config{quick: true, seed: 17}
	sh, err := trainGFS(c, s)
	if err != nil {
		t.Fatal(err)
	}
	want := s.RunGFS(s.NewGFS(sh.est, experiments.GFSFull, 1), seededTrace(s, 2, 17))
	got := gfs.NewEngine(s.NewCluster(),
		gfs.WithSystem(s.NewGFS(sh.est, experiments.GFSFull, 1)),
		gfs.WithInitialOrgDemand(sh.hist)).Run(seededTrace(s, 2, 17))
	if resultDigest(got) != resultDigest(want) {
		t.Errorf("benchmark set-up diverges from RunGFS:\n got  %s\n want %s", resultDigest(got), resultDigest(want))
	}
}

// TestSeededTrace checks the seed's contract: same seed, same trace;
// another seed, another trace of the same tasks.
func TestSeededTrace(t *testing.T) {
	s := paperScale(true)
	a, b, other := seededTrace(s, 2, 5), seededTrace(s, 2, 5), seededTrace(s, 2, 6)
	if len(a) != len(b) || len(a) != len(other) || len(a) != len(s.Trace(2)) {
		t.Fatalf("trace lengths %d %d %d", len(a), len(b), len(other))
	}
	differs := false
	for i := range a {
		if a[i].Submit != b[i].Submit || a[i].ID != i+1 {
			t.Fatalf("task %d: same seed gave another trace", i)
		}
		if i > 0 && a[i].Submit < a[i-1].Submit {
			t.Fatalf("task %d submits before its predecessor", i)
		}
		differs = differs || a[i].Submit != other[i].Submit
	}
	if !differs {
		t.Error("another seed gave the same trace")
	}
}
