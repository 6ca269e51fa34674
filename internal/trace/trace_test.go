package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
	"github.com/sjtucitlab/gfs/internal/task"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Days = 1
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Submit != b[i].Submit || a[i].GPUsPerPod != b[i].GPUsPerPod || a[i].Duration != b[i].Duration {
			t.Fatalf("task %d differs", i)
		}
	}
}

func TestGenerateSortedWithSequentialIDs(t *testing.T) {
	cfg := Default()
	cfg.Days = 1
	tasks := Generate(cfg)
	if len(tasks) == 0 {
		t.Fatal("no tasks generated")
	}
	for i, tk := range tasks {
		if tk.ID != i+1 {
			t.Fatalf("task %d has ID %d", i, tk.ID)
		}
		if i > 0 && tk.Submit < tasks[i-1].Submit {
			t.Fatal("tasks must be sorted by submission time")
		}
	}
}

func TestClassMixMatchesTable3(t *testing.T) {
	cfg := Default()
	cfg.Days = 4
	s := Summarize(Generate(cfg))
	// The paper's mix is 83.86% HP / 16.14% spot; our load-based
	// calibration should land in a broad band around it.
	if s.HPFrac < 0.6 || s.HPFrac > 0.95 {
		t.Fatalf("HP fraction = %v, implausible", s.HPFrac)
	}
	if s.HPCount == 0 || s.SpotCount == 0 {
		t.Fatal("both classes must be present")
	}
}

func TestSizeDistributionMatchesTable3(t *testing.T) {
	cfg := Default()
	cfg.Days = 6
	s := Summarize(Generate(cfg))
	// 1-GPU requests dominate both classes per Table 3.
	if s.SizeHistHP["1"] < 0.45 || s.SizeHistHP["1"] > 0.65 {
		t.Fatalf("HP 1-GPU frac = %v, want ≈0.55", s.SizeHistHP["1"])
	}
	if s.SizeHistSpot["1"] < 0.55 || s.SizeHistSpot["1"] > 0.78 {
		t.Fatalf("spot 1-GPU frac = %v, want ≈0.67", s.SizeHistSpot["1"])
	}
	// 8-GPU fraction should be substantial for HP (≈0.24).
	if s.SizeHistHP["8"] < 0.15 || s.SizeHistHP["8"] > 0.33 {
		t.Fatalf("HP 8-GPU frac = %v, want ≈0.24", s.SizeHistHP["8"])
	}
	// Partial cards are rare in 2024.
	if s.SizeHistHP["<1"] > 0.01 {
		t.Fatalf("HP partial frac = %v, want < 1%%", s.SizeHistHP["<1"])
	}
}

func TestGangFractions(t *testing.T) {
	cfg := Default()
	cfg.Days = 6
	s := Summarize(Generate(cfg))
	if s.GangFracSpot < s.GangFracHP {
		t.Fatalf("spot gang frac (%v) should exceed HP (%v) per Table 3",
			s.GangFracSpot, s.GangFracHP)
	}
	if s.GangFracHP < 0.03 || s.GangFracHP > 0.16 {
		t.Fatalf("HP gang frac = %v, want ≈0.087", s.GangFracHP)
	}
	if s.GangFracSpot < 0.15 || s.GangFracSpot > 0.40 {
		t.Fatalf("spot gang frac = %v, want ≈0.27", s.GangFracSpot)
	}
}

func TestSpotScaleScalesSubmissions(t *testing.T) {
	base := Default()
	base.Days = 2
	s1 := Summarize(Generate(base))
	scaled := base
	scaled.SpotScale = 4
	s4 := Summarize(Generate(scaled))
	ratio := float64(s4.SpotCount) / float64(s1.SpotCount)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("4× spot scale produced ratio %v", ratio)
	}
	if s4.HPCount < s1.HPCount*9/10 || s4.HPCount > s1.HPCount*11/10 {
		t.Fatal("HP count should be unaffected by spot scale")
	}
}

func TestRegime2020MostlyPartial(t *testing.T) {
	cfg := Default()
	cfg.Days = 3
	cfg.Regime = Regime2020
	s := Summarize(Generate(cfg))
	if s.SizeHistHP["<1"] < 0.7 {
		t.Fatalf("2020 partial frac = %v, want ≈0.8", s.SizeHistHP["<1"])
	}
}

func TestRuntimePercentilesPlausible(t *testing.T) {
	cfg := Default()
	cfg.Days = 6
	tasks := Generate(cfg)
	var hpDur []float64
	for _, tk := range tasks {
		if tk.Type == task.HP {
			hpDur = append(hpDur, float64(tk.Duration)/3600)
		}
	}
	p90 := stats.Percentile(hpDur, 0.9)
	// Fig. 3: HP P90 runtime ≈ 6.4 h; accept a broad band.
	if p90 < 3 || p90 > 12 {
		t.Fatalf("HP P90 runtime = %vh, want ≈6.4h", p90)
	}
	med := stats.Median(hpDur)
	if med < 0.5 || med > 3.5 {
		t.Fatalf("HP median runtime = %vh, want ≈1.5h", med)
	}
}

func TestDurationsCappedAndFloored(t *testing.T) {
	cfg := Default()
	cfg.Days = 2
	cfg.MaxDuration = 6 * simclock.Hour
	for _, tk := range Generate(cfg) {
		if tk.Duration > 6*simclock.Hour {
			t.Fatalf("duration %v exceeds cap", tk.Duration)
		}
		if tk.Duration < 60 {
			t.Fatalf("duration %v below 60s floor", tk.Duration)
		}
	}
}

func TestDiurnalArrivalShape(t *testing.T) {
	cfg := Default()
	cfg.Days = 6
	tasks := Generate(cfg)
	peak, off := 0, 0
	for _, tk := range tasks {
		h := tk.Submit.HourOfDay()
		if h >= 10 {
			peak++
		} else if h < 7 {
			off++
		}
	}
	// Peak window (14h at weight 1.8) should far outnumber the
	// off-peak window (7h at weight 0.45).
	if float64(peak) < 4*float64(off) {
		t.Fatalf("peak=%d off=%d; expected strong diurnal skew", peak, off)
	}
}

func TestSpotTasksGetCheckpoints(t *testing.T) {
	cfg := Default()
	cfg.Days = 1
	for _, tk := range Generate(cfg) {
		if tk.Type == task.Spot && tk.CheckpointEvery != simclock.Hour {
			t.Fatalf("spot checkpoint = %v, want 1h", tk.CheckpointEvery)
		}
		if tk.Type == task.HP && tk.CheckpointEvery != 0 {
			t.Fatal("HP tasks do not checkpoint in this model")
		}
	}
}

func TestOrgsAssigned(t *testing.T) {
	cfg := Default()
	cfg.Days = 1
	seen := map[string]bool{}
	for _, tk := range Generate(cfg) {
		seen[tk.Org] = true
	}
	for _, o := range cfg.Orgs {
		if !seen[o] {
			t.Fatalf("org %s never assigned", o)
		}
	}
}

// readCSV decodes a whole CSV trace into a slice.
func readCSV(r io.Reader) ([]*task.Task, error) {
	src, err := NewCSVSource(r)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Days = 1
	tasks := Generate(cfg)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("round trip length %d != %d", len(got), len(tasks))
	}
	for i := range tasks {
		a, b := tasks[i], got[i]
		if a.ID != b.ID || a.Org != b.Org || a.GPUModel != b.GPUModel ||
			a.Type != b.Type || a.Pods != b.Pods || a.GPUsPerPod != b.GPUsPerPod ||
			a.Gang != b.Gang || a.Duration != b.Duration ||
			a.CheckpointEvery != b.CheckpointEvery || a.Submit != b.Submit {
			t.Fatalf("task %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := readCSV(strings.NewReader("bogus,header\n")); err == nil {
		t.Fatal("bad header should error")
	}
	bad := strings.Join(csvHeader, ",") + "\nx,o,m,hp,1,1,false,60,0,0\n"
	if _, err := readCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric id should error")
	}
	badType := strings.Join(csvHeader, ",") + "\n1,o,m,weird,1,1,false,60,0,0\n"
	if _, err := readCSV(strings.NewReader(badType)); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestPoissonMeanApprox(t *testing.T) {
	rngCfg := Default()
	_ = rngCfg
	// Sanity for the small-λ and large-λ paths.
	rng := newTestRand()
	for _, lambda := range []float64{0.5, 5, 80} {
		n := 20_000
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(rng, lambda)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-lambda) > lambda*0.1+0.1 {
			t.Fatalf("poisson(%v) mean = %v", lambda, got)
		}
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("λ=0 must return 0")
	}
}
