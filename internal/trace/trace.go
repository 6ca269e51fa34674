// Package trace synthesizes GPU cluster workloads matching the
// published statistics of the GFS paper's production trace (Table 3,
// Figs. 2–3): the HP/spot mix, per-type GPU-size distribution, gang
// fractions, lognormal runtimes, and diurnal arrival intensity. A
// 2020 regime preset reproduces the pre-LLM request distribution used
// in Fig. 2's comparison.
package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// Regime selects the workload era.
type Regime int

const (
	// Regime2024 is the LLM-era workload (Table 3, Oct 2024): full
	// cards dominate, long runtimes, frequent gang scheduling.
	Regime2024 Regime = iota
	// Regime2020 is the pre-LLM workload (Jul 2020): 80% of pods
	// request partial cards and runtimes are much shorter.
	Regime2020
)

// sizeBucket is one entry of a GPU-request distribution.
type sizeBucket struct {
	gpus float64 // g; values < 1 draw a random fraction
	prob float64
}

// Table 3 GPU specification distributions (fractions of tasks).
var (
	hpSizes2024 = []sizeBucket{
		{0.5, 0.0011}, {1, 0.5511}, {2, 0.1337}, {4, 0.0753}, {8, 0.2369},
	}
	spotSizes2024 = []sizeBucket{
		{0.5, 0.0082}, {1, 0.6735}, {2, 0.0567}, {4, 0.1200}, {8, 0.1404},
	}
	// 2020: 80% partial-card requests, small whole-card remainder.
	sizes2020 = []sizeBucket{
		{0.5, 0.80}, {1, 0.15}, {2, 0.04}, {8, 0.01},
	}
)

// checkpointEvery is the spot checkpoint interval. Checkpoints align
// with the guarantee boundary, one simulated hour: a spot task
// preempted before completing its guaranteed hour saves nothing
// (§2.2: "task states cannot be saved due to the absence of a
// checkpoint").
const checkpointEvery = simclock.Hour

// Gang fractions from Table 3.
const (
	hpGangFrac2024   = 0.0866
	spotGangFrac2024 = 0.2726
	gangFrac2020     = 0.01
)

// Config parameterizes trace generation.
type Config struct {
	// Seed drives all randomness; identical configs generate
	// identical traces.
	Seed int64
	// Days is the span of the arrival process.
	Days int
	// ClusterGPUs is the capacity used to calibrate arrival rates.
	ClusterGPUs float64
	// HPLoad is the target average fraction of capacity consumed
	// by HP tasks (offered load, before queuing).
	HPLoad float64
	// SpotLoad is the target fraction for spot tasks at scale 1.
	SpotLoad float64
	// SpotScale multiplies the spot submission rate: 1, 2 and 4
	// reproduce the paper's low/medium/high spot workloads.
	SpotScale float64
	// GPUModel stamps every task (empty = any).
	GPUModel string
	// Regime selects 2024 (default) or 2020 statistics.
	Regime Regime
	// Orgs optionally assigns organizations round-robin with the
	// given names; empty means single unnamed org.
	Orgs []string
	// MaxDuration caps task runtimes so simulations terminate;
	// zero means 2× the trace span.
	MaxDuration simclock.Duration
	// MaxPodGPUs caps the per-pod GPU request, for pools whose
	// nodes have fewer than 8 cards (e.g. 1-GPU A10 nodes); zero
	// means no cap.
	MaxPodGPUs float64
	// GangScale multiplies HP gang pod counts (base {2,4,8}), so
	// larger clusters see proportionally larger distributed
	// training jobs — the LLM-era pattern of Observation 1. Spot
	// (best-effort) gangs stay small. Zero means 1.
	GangScale int
}

// Default returns the configuration used by the paper-scale
// simulations: a 2,296-GPU A100 pool with moderate HP load.
func Default() Config {
	return Config{
		Seed:        1,
		Days:        3,
		ClusterGPUs: 2296,
		HPLoad:      0.55,
		SpotLoad:    0.18,
		SpotScale:   1,
		GPUModel:    "A100",
		Orgs:        []string{"OrgA", "OrgB", "OrgC", "OrgD"},
	}
}

// Generate produces the task list, sorted by submission time, with
// IDs assigned in submission order starting from 1.
func Generate(cfg Config) []*task.Task {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.SpotScale == 0 {
		cfg.SpotScale = 1
	}
	if cfg.MaxDuration == 0 {
		cfg.MaxDuration = simclock.Duration(cfg.Days) * 2 * simclock.Day
	}

	hp := generateClass(cfg, task.HP, cfg.HPLoad, rng)
	spot := generateClass(cfg, task.Spot, cfg.SpotLoad*cfg.SpotScale, rng)
	tasks := append(append(make([]*task.Task, 0, len(hp)+len(spot)), hp...), spot...)

	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Submit != tasks[j].Submit {
			return tasks[i].Submit < tasks[j].Submit
		}
		return tasks[i].Type > tasks[j].Type // HP first on ties
	})
	for i, tk := range tasks {
		tk.ID = i + 1
	}
	return tasks
}

// classParams returns the per-regime distribution knobs for one task
// class.
func classParams(cfg Config, typ task.Type) (sizes []sizeBucket, gangFrac, medianRun, sigma float64) {
	switch cfg.Regime {
	case Regime2020:
		// P90 runtime ≈ 4.4 h per the paper's 1.44× comparison.
		return sizes2020, gangFrac2020, 40 * 60, 1.1
	default:
		if typ == task.HP {
			// Median 1.5 h, σ chosen so P90 ≈ 6.4 h (Fig. 3).
			return hpSizes2024, hpGangFrac2024, 1.5 * 3600, 1.13
		}
		return spotSizes2024, spotGangFrac2024, 1.0 * 3600, 1.05
	}
}

func generateClass(cfg Config, typ task.Type, load float64, rng *rand.Rand) []*task.Task {
	if load <= 0 {
		return nil
	}
	sizes, gangFrac, medianRun, sigma := classParams(cfg, typ)

	// Expected resource footprint of one task, to calibrate the
	// arrival rate against the offered load. The MaxPodGPUs clamp
	// must be reflected here or clamped pools run far under their
	// target load.
	meanGPUs := 0.0
	for _, b := range sizes {
		g := b.gpus
		if g < 1 {
			g = 0.5 // mean of the fractional draw below
		}
		if cfg.MaxPodGPUs > 0 && g > cfg.MaxPodGPUs {
			g = cfg.MaxPodGPUs
		}
		meanGPUs += float64(g * b.prob)
	}
	gs := 1.0
	if typ == task.HP {
		gs = float64(gangScale(cfg))
	}
	meanPods := 1 + float64(gangFrac*(float64(meanGangPods*gs)-1))
	meanRun := medianRun * math.Exp(sigma*sigma/2)
	gpuSecondsPerTask := meanGPUs * meanPods * meanRun

	totalGPUSeconds := load * cfg.ClusterGPUs * float64(cfg.Days) * simclock.Day.Seconds()
	nTasks := int(totalGPUSeconds / gpuSecondsPerTask)

	// Diurnal arrival intensity: weight each hour, then distribute
	// task arrivals over hours proportionally (Poisson counts).
	hours := cfg.Days * 24
	weights := make([]float64, hours)
	wsum := 0.0
	for h := 0; h < hours; h++ {
		w := arrivalShape(h % 24)
		weights[h] = w
		wsum += w
	}

	// The hourly Poisson counts sum to about nTasks, with a standard
	// deviation of √nTasks: room for four of them rarely regrows.
	out := make([]*task.Task, 0, nTasks+4*int(math.Sqrt(float64(nTasks)))+16)
	for h := 0; h < hours; h++ {
		lambda := float64(nTasks) * weights[h] / wsum
		n := poisson(rng, lambda)
		for i := 0; i < n; i++ {
			tk := sampleTask(cfg, typ, sizes, gangFrac, medianRun, sigma, rng)
			tk.Submit = simclock.Time(h)*simclock.Time(simclock.Hour) +
				simclock.Time(rng.Int63n(int64(simclock.Hour)))
			out = append(out, tk)
		}
	}
	return out
}

// meanGangPods is the expected pod count of a gang task under the
// sampler in sampleTask (uniform over {2,4,8} → 14/3) before gang
// scaling.
const meanGangPods = 14.0 / 3.0

func gangScale(cfg Config) int {
	if cfg.GangScale < 1 {
		return 1
	}
	return cfg.GangScale
}

func sampleTask(cfg Config, typ task.Type, sizes []sizeBucket, gangFrac, medianRun, sigma float64, rng *rand.Rand) *task.Task {
	g := sampleSize(sizes, rng)
	if cfg.MaxPodGPUs > 0 && g > cfg.MaxPodGPUs {
		g = cfg.MaxPodGPUs
	}
	pods := 1
	gang := false
	if g >= 1 && rng.Float64() < gangFrac {
		gang = true
		pods = []int{2, 4, 8}[rng.Intn(3)]
		if typ == task.HP {
			pods *= gangScale(cfg)
		}
	}
	dur := lognormal(rng, medianRun, sigma)
	if dur > cfg.MaxDuration.Seconds() {
		dur = cfg.MaxDuration.Seconds()
	}
	if dur < 60 {
		dur = 60
	}
	tk := task.New(0, typ, pods, g, simclock.Duration(dur))
	tk.Gang = gang
	tk.GPUModel = cfg.GPUModel
	if typ == task.Spot {
		tk.CheckpointEvery = checkpointEvery
	}
	if len(cfg.Orgs) > 0 {
		tk.Org = cfg.Orgs[rng.Intn(len(cfg.Orgs))]
	}
	return tk
}

func sampleSize(sizes []sizeBucket, rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for _, b := range sizes {
		acc += b.prob
		if u < acc {
			if b.gpus < 1 {
				// Partial card: uniform fraction in [0.1, 0.9].
				return math.Round((0.1+float64(0.8*rng.Float64()))*10) / 10
			}
			return b.gpus
		}
	}
	return sizes[len(sizes)-1].gpus
}

// arrivalShape weights submissions by hour of day, peaking in the
// 10:00–24:00 window observed in production. The amplitude matches
// the moderate fluctuation of the paper's Fig. 4 demand curves
// (roughly ±20% around the mean).
func arrivalShape(hour int) float64 {
	if hour >= 10 {
		return 1.4
	}
	if hour >= 7 {
		return 1.0
	}
	return 0.6
}

// lognormal draws exp(N(ln median, sigma²)).
func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// poisson draws a Poisson variate by inversion (small λ) or normal
// approximation (large λ).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + float64(math.Sqrt(lambda)*rng.NormFloat64())))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ParseRegime resolves a regime name as accepted by the CLIs ("2024"
// or "2020"), rejecting anything else so a typo cannot silently fall
// back to the default era.
func ParseRegime(s string) (Regime, error) {
	switch s {
	case "2024":
		return Regime2024, nil
	case "2020":
		return Regime2020, nil
	}
	return Regime2024, fmt.Errorf("trace: unknown regime %q (valid: 2024, 2020)", s)
}

// Stats summarizes a trace for validation against Table 3.
type Stats struct {
	HPCount, SpotCount int
	HPFrac             float64
	GangFracHP         float64
	GangFracSpot       float64
	// SizeHist maps GPU request (per pod, partials bucketed as
	// "<1") to the fraction of tasks of that class.
	SizeHistHP   map[string]float64
	SizeHistSpot map[string]float64
	// Span is the submission window [FirstSubmit, LastSubmit] and
	// TotalGPUSeconds the offered work Σ pods×gpus×duration.
	FirstSubmit, LastSubmit simclock.Time
	TotalGPUSeconds         float64
}

// StatsAccumulator computes trace statistics in one streaming pass
// with O(1) memory (a fixed handful of counters and the small
// size-bucket histograms), so summarizing a trace never requires
// holding it.
type StatsAccumulator struct {
	hp, spot         int
	gangHP, gangSpot int
	histHP, histSpot map[string]int
	first, last      simclock.Time
	gpuSeconds       float64
}

// Add folds one task into the running statistics.
func (a *StatsAccumulator) Add(tk *task.Task) {
	if a.histHP == nil {
		a.histHP, a.histSpot = map[string]int{}, map[string]int{}
		a.first, a.last = tk.Submit, tk.Submit
	}
	if tk.Submit < a.first {
		a.first = tk.Submit
	}
	if tk.Submit > a.last {
		a.last = tk.Submit
	}
	a.gpuSeconds += float64(tk.TotalGPUs() * float64(tk.Duration))
	key := sizeKey(tk.GPUsPerPod)
	if tk.Type == task.HP {
		a.hp++
		a.histHP[key]++
		if tk.Gang {
			a.gangHP++
		}
	} else {
		a.spot++
		a.histSpot[key]++
		if tk.Gang {
			a.gangSpot++
		}
	}
}

// Stats closes the pass and returns the accumulated statistics. The
// accumulator stays usable; later Adds extend the same tally.
func (a *StatsAccumulator) Stats() Stats {
	s := Stats{
		HPCount: a.hp, SpotCount: a.spot,
		SizeHistHP: map[string]float64{}, SizeHistSpot: map[string]float64{},
		FirstSubmit: a.first, LastSubmit: a.last,
		TotalGPUSeconds: a.gpuSeconds,
	}
	if total := a.hp + a.spot; total > 0 {
		s.HPFrac = float64(a.hp) / float64(total)
	}
	if a.hp > 0 {
		s.GangFracHP = float64(a.gangHP) / float64(a.hp)
		for k, n := range a.histHP { //lint:ordered a key-by-key copy into a fresh map; each entry is computed alone
			s.SizeHistHP[k] = float64(n) / float64(a.hp)
		}
	}
	if a.spot > 0 {
		s.GangFracSpot = float64(a.gangSpot) / float64(a.spot)
		for k, n := range a.histSpot { //lint:ordered a key-by-key copy into a fresh map; each entry is computed alone
			s.SizeHistSpot[k] = float64(n) / float64(a.spot)
		}
	}
	return s
}

// Summarize computes trace statistics over an in-memory trace.
func Summarize(tasks []*task.Task) Stats {
	var acc StatsAccumulator
	for _, tk := range tasks {
		acc.Add(tk)
	}
	return acc.Stats()
}

// SummarizeSource computes trace statistics in one streaming pass
// over a Source, closing it afterwards. Memory stays O(1) in the
// trace length.
func SummarizeSource(src Source) (Stats, error) {
	defer src.Close()
	var acc StatsAccumulator
	for {
		tk, err := src.Next()
		if err == io.EOF {
			return acc.Stats(), nil
		}
		if err != nil {
			return Stats{}, err
		}
		acc.Add(tk)
	}
}

func sizeKey(g float64) string {
	switch {
	case g < 1:
		return "<1"
	case g == 1:
		return "1"
	case g == 2:
		return "2"
	case g == 4:
		return "4"
	case g == 8:
		return "8"
	default:
		return "other"
	}
}
