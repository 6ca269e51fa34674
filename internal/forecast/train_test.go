package forecast

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/tensor"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// orgPanelExamples windows three weeks of the four Fig. 4
// organizations into (l, h) examples at stride h, the GDE's training
// set at the paper's L = 168, H = 4.
func orgPanelExamples(l, h int) []Example {
	cfgs := org.Presets()
	panel := org.Panel(cfgs, timefeat.NewCalendar(), 0, 24*21, 17)
	var exs []Example
	for i, c := range cfgs {
		exs = append(exs, Windows(panel[c.Name], 0, l, h, h, OrgMeta{OrgID: i})...)
	}
	return exs
}

// TestFitStepAllocatesNothing pins the tape's reuse: once a tape has
// recorded one OrgLinear example step, the next Reset, Gaussian NLL
// forward and Backward record into the same slots and allocate
// nothing.
func TestFitStepAllocatesNothing(t *testing.T) {
	exs := orgPanelExamples(168, 4)
	m := NewOrgLinear(DefaultOrgLinearConfig())
	m.build(168, 4, rand.New(rand.NewSource(1)))
	w, _ := prepare(exs[0], orgLinearKernel, nil)
	loss := nll(m.forward)
	tp := tensor.NewTape()
	step := func() {
		tp.Reset()
		tp.Backward(loss(tp, w))
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a warm example step allocates %v times, want 0", n)
	}
}

// TestPredictDistAllocatesOnlyRows pins the prediction scratch: a warm
// OrgLinear forecast prepares its window in a pooled buffer and runs
// on a pooled tape, so it allocates only the two rows it returns.
func TestPredictDistAllocatesOnlyRows(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under -race")
			}
		}
	}
	// A collection would empty the pool mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exs := orgPanelExamples(168, 4)
	m := NewOrgLinear(DefaultOrgLinearConfig())
	m.build(168, 4, rand.New(rand.NewSource(1)))
	predict := func() { m.PredictDist(exs[0]) }
	predict()
	if n := testing.AllocsPerRun(100, predict); n != 2 {
		t.Fatalf("a warm PredictDist allocates %v times, want 2", n)
	}
}

// TestPredictDistConcurrent checks that concurrent forecasts from one
// trained model, each on a pooled tape, match the serial forecasts
// bit for bit.
func TestPredictDistConcurrent(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)
	m := NewOrgLinear(OrgLinearConfig{Epochs: 3})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	type dist struct{ mu, sigma []float64 }
	want := make([]dist, len(test))
	for i, ex := range test {
		want[i].mu, want[i].sigma = m.PredictDist(ex)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 5 {
				for i := range test {
					j := (i + g + r) % len(test)
					mu, sigma := m.PredictDist(test[j])
					if !sameBits(mu, want[j].mu) || !sameBits(sigma, want[j].sigma) {
						errs <- "concurrent PredictDist differs from the serial forecast"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkFitOrgLinear times one OrgLinear training at the GDE's
// shape: L = 168, H = 4, four organizations over three weeks, the
// default schedule.
func BenchmarkFitOrgLinear(b *testing.B) {
	exs := orgPanelExamples(168, 4)
	b.ReportAllocs()
	for b.Loop() {
		if err := NewOrgLinear(DefaultOrgLinearConfig()).Fit(exs); err != nil {
			b.Fatal(err)
		}
	}
}
