package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The one-time set-up runs at least setupRepeats times, and a cheap
// one until setupBudget is spent (at most maxSetupRepeats times), so
// that setup_s is a steady median and not a single sample: the
// daemon's 15 ms set-up spread 31 % between runs at fifteen repeats.
const (
	setupRepeats    = 3
	maxSetupRepeats = 50
	setupBudget     = time.Second
)

// moreSetup reports whether set-up should run once more after n runs
// since start. The quick profile stops at setupRepeats.
func moreSetup(c *config, n int, start time.Time) bool {
	return n < setupRepeats || (!c.quick && n < maxSetupRepeats && time.Since(start) < setupBudget)
}

// run executes one workload in this process, untraced or traced, and
// returns its result. Diagnostics go to standard error.
func run(c *config) (*result, error) {
	for _, w := range workloads() {
		if w.name != c.workload {
			continue
		}
		exp := loadExpected(c)
		switch {
		case w.name == "service_sessions" && c.traced:
			return serviceTraced(c, exp)
		case w.name == "service_sessions":
			return serviceUntraced(c, exp)
		case c.traced:
			return serialTraced(c, &w, exp)
		default:
			return serialUntraced(c, &w, exp)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// checker compares every operation's digests with the pinned
// expectation (seeds 17 and 23 on a pinned architecture) and with the
// first operation of the run.
type checker struct {
	exp     map[string]string // nil when nothing is pinned for this run
	first   map[string]string
	collect map[string]string // receives every digest seen, when non-nil
	failed  int
	notes   []string
}

// check records the operation's outcome and reports whether it
// passed.
func (k *checker) check(out *opResult, err error) bool {
	if err == nil && out.unfinished > 0 {
		err = fmt.Errorf("%d tasks left unfinished", out.unfinished)
	}
	if err == nil {
		err = k.compare(out.digests)
	}
	if err != nil {
		k.failed++
		k.notes = append(k.notes, err.Error())
		return false
	}
	return true
}

// session records one daemon session's outcome and reports whether it
// passed.
func (k *checker) session(s sessionSample) bool {
	if s.err != nil {
		k.failed++
		k.notes = append(k.notes, s.err.Error())
	}
	return s.err == nil
}

func (k *checker) compare(digests map[string]string) error {
	for key, want := range k.exp {
		if got, ok := digests[key]; ok && got != want {
			return fmt.Errorf("digest %q differs from expected.json:\n  got  %s\n  want %s", key, got, want)
		}
	}
	if k.first == nil {
		k.first = digests
	}
	for key, want := range k.first {
		if got, ok := digests[key]; ok && got != want {
			return fmt.Errorf("digest %q differs between two operations of one run:\n  got  %s\n  want %s", key, got, want)
		}
	}
	for key, got := range digests {
		if k.collect != nil {
			k.collect[key] = got
		}
	}
	return nil
}

// opSamples accumulates the measured operations of an untraced run.
type opSamples struct {
	walls     []time.Duration // one per operation
	units     int             // operations counted for ops_per_s
	busy      time.Duration   // Σ walls
	mallocs   uint64
	bytes     uint64
	perOpPrep []float64 // per-operation set-up, seconds
}

// measureOp runs one prepared operation between two memory-statistics
// reads.
func (s *opSamples) measureOp(op func() (*opResult, error)) (*opResult, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := op()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s.walls = append(s.walls, wall)
	s.busy += wall
	s.mallocs += m1.Mallocs - m0.Mallocs
	s.bytes += m1.TotalAlloc - m0.TotalAlloc
	if out != nil {
		s.units += out.units
		if out.post != nil {
			out.post()
		}
	}
	return out, err
}

// endToEnd renders the end-to-end metrics of an untraced run. ops is
// the number of operations the per-operation figures divide by.
func endToEnd(setup float64, walls []float64, tailLimit, unitsPerSec float64, bytes uint64, ops int) (map[string]metric, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	med := median(walls) // sorts walls
	tail := tailPercentile(len(walls), tailLimit)
	tailValue := med
	if tail != 50 {
		tailValue = percentile(walls, tail)
	}
	fmt.Fprintf(os.Stderr, "ops=%d run_s=p50 op_tail_ms=p%g of %d samples; op wall min %.6g p25 %.6g p50 %.6g max %.6g s\n",
		ops, tail, len(walls), walls[0], percentile(walls, 25), med, walls[len(walls)-1])
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"run_s":           {med, "s"},
		"op_tail_ms":      {tailValue * 1000, "ms"},
		"ops_per_s":       {unitsPerSec, "1/s"},
		"alloc_mb_per_op": {float64(bytes) / float64(ops) / (1 << 20), "MB"},
		"peak_rss_mb":     {rss, "MB"},
	}, nil
}

// oneTimeSetup runs the workload's one-time set-up several times and
// returns the last product and the median duration in seconds.
func oneTimeSetup(c *config, setup func() (any, error)) (any, float64, error) {
	var shared any
	var times []float64
	for start := time.Now(); moreSetup(c, len(times), start); {
		t0 := time.Now()
		var err error
		if shared, err = setup(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return shared, median(times), nil
}

// serialUntraced measures a workload whose operations run one after
// another: set up, then prepare and run operations until c.seconds
// have passed.
func serialUntraced(c *config, w *workload, exp map[string]string) (*result, error) {
	shared, setup, err := oneTimeSetup(c, func() (any, error) { return w.oneTime(c) })
	if err != nil {
		return nil, err
	}
	k := &checker{exp: exp, collect: c.collect}
	var s opSamples
	start := time.Now()
	for len(s.walls) == 0 || time.Since(start).Seconds() < c.seconds {
		p0 := time.Now()
		op, err := w.prepare(c, shared, nil)
		if err != nil {
			return nil, fmt.Errorf("per-operation set-up: %w", err)
		}
		s.perOpPrep = append(s.perOpPrep, time.Since(p0).Seconds())
		k.check(s.measureOp(op))
	}
	if exp == nil && len(s.walls) < 2 {
		fmt.Fprintln(os.Stderr, "warning: one operation and no pinned digests for this seed: outputs checked for completion only")
	}
	ops := len(s.walls)
	metrics, err := endToEnd(setup+median(s.perOpPrep), seconds(s.walls), 99,
		float64(s.units)/s.busy.Seconds(), s.bytes, ops)
	if err != nil {
		return nil, err
	}
	return finish(k, ops, metrics), nil
}

// finish assembles the printed result.
func finish(k *checker, attempted int, metrics map[string]metric) *result {
	for _, note := range k.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", note)
	}
	return &result{Correct: k.failed == 0, Attempted: attempted, Failed: k.failed, Metrics: metrics}
}

// serviceUntraced measures the gfsd closed loop.
func serviceUntraced(c *config, exp map[string]string) (*result, error) {
	specs, err := serviceSpecs(c)
	if err != nil {
		return nil, err
	}
	k := &checker{exp: exp, collect: c.collect}
	k.check(&opResult{digests: specDigests(specs)}, nil)

	// Set-up is starting the daemon and warming one connection per
	// client with a cycle of sessions.
	var d *daemon
	var setups []float64
	for start := time.Now(); moreSetup(c, len(setups), start); {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		d = startDaemon(c.procs)
		warm, _, _ := d.runSessions(specs, c.procs, time.Minute, int64(len(specs)), false)
		setups = append(setups, time.Since(t0).Seconds())
		for _, s := range warm {
			if s.err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up session: %w", s.err)
			}
		}
	}
	defer d.stop()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	samples, wall, _ := d.runSessions(specs, c.procs, time.Duration(c.seconds*float64(time.Second)), sessionLimit(c), false)
	runtime.ReadMemStats(&m1)

	var walls []float64
	for _, s := range samples {
		if k.session(s) {
			walls = append(walls, s.total.Seconds())
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no session succeeded: %v", k.notes)
	}
	metrics, err := endToEnd(median(setups), walls, sessionTail, float64(len(samples))/wall.Seconds(),
		m1.TotalAlloc-m0.TotalAlloc, len(samples))
	if err != nil {
		return nil, err
	}
	return finish(k, len(samples), metrics), nil
}

// sessionTail caps the percentile session latency is reported at: p95
// has ten samples beyond it from 200 sessions, which every host
// reaches in one run, while p99 needs 1,000 and would come and go
// with the host's speed.
const sessionTail = 95

// sessionLimit caps the sessions of a quick run.
func sessionLimit(c *config) int64 {
	if c.quick {
		return 40
	}
	return 0
}

// specDigests keys the specs' direct-run report digests for the
// checker.
func specDigests(specs []*sessionSpec) map[string]string {
	out := make(map[string]string, len(specs))
	for _, sp := range specs {
		out["report."+sp.name] = sp.digest
	}
	return out
}
