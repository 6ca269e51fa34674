package forecast

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/tensor"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// syntheticExamples builds a small train/test panel from the org
// demand generator: strongly diurnal, learnable in a few epochs.
func syntheticExamples(t *testing.T, l, h int) (train, test []Example) {
	t.Helper()
	cal := timefeat.NewCalendar()
	rng := rand.New(rand.NewSource(7))
	cfg := org.PresetA()
	series := cfg.Series(cal, 0, 24*21, rng) // 3 weeks
	exs := Windows(series, 0, l, h, h, OrgMeta{OrgID: 0, ClusterID: 0, ModelID: 0})
	return SplitTrainTest(exs, 0.25)
}

// fitAndScore trains a model and returns its MAE relative to the mean
// demand level, alongside the same for a flat mean predictor.
func fitAndScore(t *testing.T, m Forecaster, train, test []Example) (modelMAE, naiveMAE float64) {
	t.Helper()
	if err := m.Fit(train); err != nil {
		t.Fatalf("%s.Fit: %v", m.Name(), err)
	}
	acc := Evaluate(m, test)
	// Baseline: predict the history mean.
	var naive float64
	var n float64
	for _, ex := range test {
		mean := 0.0
		for _, v := range ex.History {
			mean += v
		}
		mean /= float64(len(ex.History))
		for _, y := range ex.Future {
			naive += math.Abs(mean - y)
			n++
		}
	}
	return acc.MAE, naive / n
}

func TestOrgLinearLearnsDiurnalPattern(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)
	m := NewOrgLinear(OrgLinearConfig{Epochs: 30})
	mae, naive := fitAndScore(t, m, train, test)
	if mae >= naive {
		t.Fatalf("OrgLinear MAE %v should beat flat-mean %v", mae, naive)
	}
}

func TestOrgLinearDistributionalCalibration(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)
	m := NewOrgLinear(OrgLinearConfig{Epochs: 30})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	cov := Coverage(m, test, 0.9)
	// MLE-trained bands should be roughly calibrated.
	if cov < 0.6 || cov > 1.0 {
		t.Fatalf("0.9 coverage = %v, badly calibrated", cov)
	}
	mu, sigma := m.PredictDist(test[0])
	if len(mu) != 6 || len(sigma) != 6 {
		t.Fatal("dist shapes")
	}
	for _, s := range sigma {
		if s <= 0 {
			t.Fatal("σ must be positive")
		}
	}
}

func TestOrgLinearUnfittedPredicts(t *testing.T) {
	m := NewOrgLinear(DefaultOrgLinearConfig())
	ex := Example{History: make([]float64, 8), Future: make([]float64, 3)}
	if got := m.Predict(ex); len(got) != 3 {
		t.Fatal("unfitted predict should return zeros of horizon length")
	}
}

func TestOrgLinearRejectsRaggedExamples(t *testing.T) {
	m := NewOrgLinear(DefaultOrgLinearConfig())
	exs := []Example{
		{History: make([]float64, 4), Future: make([]float64, 2)},
		{History: make([]float64, 6), Future: make([]float64, 2)},
	}
	if err := m.Fit(exs); err == nil {
		t.Fatal("ragged examples should error")
	}
}

func TestDLinearLearns(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)
	mae, naive := fitAndScore(t, NewDLinear(30), train, test)
	if mae >= naive {
		t.Fatalf("DLinear MAE %v should beat flat-mean %v", mae, naive)
	}
}

func TestTransformerLearns(t *testing.T) {
	train, test := syntheticExamples(t, 36, 6)
	mae, naive := fitAndScore(t, NewTransformer(4), train, test)
	if mae >= naive*1.2 {
		t.Fatalf("Transformer MAE %v vs flat-mean %v: failed to learn", mae, naive)
	}
}

func TestInformerLearns(t *testing.T) {
	train, test := syntheticExamples(t, 36, 6)
	m := NewInformer(4)
	if m.Name() != "Informer" {
		t.Fatal("variant should rename model")
	}
	mae, naive := fitAndScore(t, m, train, test)
	if mae >= naive*1.2 {
		t.Fatalf("Informer MAE %v vs flat-mean %v: failed to learn", mae, naive)
	}
}

func TestAutoformerLearns(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)
	mae, naive := fitAndScore(t, NewAutoformer(4), train, test)
	if mae >= naive*1.2 {
		t.Fatalf("Autoformer MAE %v vs flat-mean %v: failed to learn", mae, naive)
	}
}

func TestFEDformerLearns(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)
	mae, naive := fitAndScore(t, NewFEDformer(4), train, test)
	if mae >= naive*1.2 {
		t.Fatalf("FEDformer MAE %v vs flat-mean %v: failed to learn", mae, naive)
	}
}

func TestDeepARLearns(t *testing.T) {
	train, test := syntheticExamples(t, 36, 6)
	m := NewDeepAR(3)
	mae, naive := fitAndScore(t, m, train, test)
	if mae >= naive*1.3 {
		t.Fatalf("DeepAR MAE %v vs flat-mean %v: failed to learn", mae, naive)
	}
	mu, sigma := m.PredictDist(test[0])
	if len(mu) != 6 || len(sigma) != 6 {
		t.Fatal("dist shapes")
	}
	for _, s := range sigma {
		if s <= 0 {
			t.Fatal("σ must be positive")
		}
	}
}

func TestTopAutocorrLagsFindsPeriod(t *testing.T) {
	// Strong period-12 signal: lag 12 (or 24) must rank first.
	n := 96
	hist := make([]float64, n)
	for i := range hist {
		hist[i] = math.Sin(2 * math.Pi * float64(i) / 12)
	}
	lags, weights := topAutocorrLags(hist, 3)
	if len(lags) != 3 || len(weights) != 3 {
		t.Fatal("want 3 lags")
	}
	if lags[0]%12 != 0 {
		t.Fatalf("top lag = %d, want a multiple of 12", lags[0])
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum %v, want 1", sum)
	}
}

func TestRollIndices(t *testing.T) {
	idx := rollIndices(5, 2)
	want := []int{2, 3, 4, 0, 1}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("roll = %v, want %v", idx, want)
		}
	}
}

func TestTopQueriesSelection(t *testing.T) {
	// Row 1 has much higher max−mean than rows 0 and 2.
	s := [][]float64{
		{1, 1, 1},
		{0, 10, 0},
		{2, 2, 2},
	}
	flat := make([]float64, 0, 9)
	for _, row := range s {
		flat = append(flat, row...)
	}
	scores := fromRows(3, 3, flat)
	sel := topQueries(scores, 1)
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("selected %v, want [1]", sel)
	}
	sel = topQueries(scores, 3)
	if len(sel) != 3 {
		t.Fatal("u=3 selects all")
	}
}

func fromRows(r, c int, data []float64) *tensor.Tensor {
	t := tensor.New(r, c)
	copy(t.Data, data)
	return t
}
