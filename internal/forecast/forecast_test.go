package forecast

import (
	"math"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/stats"
)

func TestWindowsShapes(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	exs := Windows(series, 5, 24, 4, 10, OrgMeta{OrgID: 2})
	if len(exs) == 0 {
		t.Fatal("no windows")
	}
	for i, ex := range exs {
		if len(ex.History) != 24 || len(ex.Future) != 4 {
			t.Fatalf("window %d shape %d/%d", i, len(ex.History), len(ex.Future))
		}
		if ex.Org.OrgID != 2 {
			t.Fatal("meta not propagated")
		}
		if ex.StartHour != 5+i*10 {
			t.Fatalf("start hour %d, want %d", ex.StartHour, 5+i*10)
		}
		// Future continues exactly where history ends.
		if ex.Future[0] != ex.History[23]+1 {
			t.Fatal("future must follow history")
		}
	}
}

func TestWindowsDefaultStride(t *testing.T) {
	series := make([]float64, 40)
	exs := Windows(series, 0, 10, 5, 0, OrgMeta{})
	// stride defaults to h=5: starts at 0,5,10,...,25 (25+15=40).
	if len(exs) != 6 {
		t.Fatalf("windows = %d, want 6", len(exs))
	}
}

func TestSplitTrainTest(t *testing.T) {
	exs := make([]Example, 10)
	train, test := SplitTrainTest(exs, 0.3)
	if len(train) != 7 || len(test) != 3 {
		t.Fatalf("split %d/%d, want 7/3", len(train), len(test))
	}
	train, test = SplitTrainTest(exs[:1], 0.9)
	if len(train) != 1 || len(test) != 0 {
		t.Fatal("at least one training example must remain")
	}
}

func TestShapeOfValidation(t *testing.T) {
	if _, _, err := shapeOf(nil); err == nil {
		t.Fatal("empty set should error")
	}
	exs := []Example{
		{History: make([]float64, 4), Future: make([]float64, 2)},
		{History: make([]float64, 5), Future: make([]float64, 2)},
	}
	if _, _, err := shapeOf(exs); err == nil {
		t.Fatal("ragged shapes should error")
	}
	for _, ex := range []Example{
		{Future: make([]float64, 2)},
		{History: make([]float64, 4)},
	} {
		if _, _, err := shapeOf([]Example{ex}); err == nil {
			t.Fatalf("window with history %d, future %d should error", len(ex.History), len(ex.Future))
		}
		// An empty window used to train on a NaN scaler, and DeepAR
		// panicked on the missing last history value.
		if err := NewDeepAR(8).Fit([]Example{ex}); err == nil {
			t.Fatalf("DeepAR.Fit on history %d, future %d should error", len(ex.History), len(ex.Future))
		}
	}
	// A non-finite value used to train every parameter to NaN; the
	// error names the example and the index.
	for _, tc := range []struct {
		history, future []float64
		want            string
	}{
		{[]float64{1, 2, math.NaN(), 4}, []float64{1, 2}, "example 1 history[2] = NaN"},
		{[]float64{1, 2, 3, 4}, []float64{math.Inf(1), 2}, "example 1 future[0] = +Inf"},
		{[]float64{math.Inf(-1), 2, 3, 4}, []float64{1, 2}, "example 1 history[0] = -Inf"},
	} {
		exs := []Example{
			{History: []float64{1, 2, 3, 4}, Future: []float64{5, 6}},
			{History: tc.history, Future: tc.future},
		}
		_, _, err := shapeOf(exs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("shapeOf error %v, want one naming %q", err, tc.want)
		}
	}
}

func TestScalerRoundTrip(t *testing.T) {
	xs := []float64{10, 12, 14, 16}
	sc := newScaler(xs)
	normalized := sc.apply(nil, xs)
	if math.Abs(stats.Mean(normalized)) > 1e-9 {
		t.Fatal("normalized mean should be 0")
	}
	back := sc.invert(normalized)
	for i := range xs {
		if math.Abs(back[i]-xs[i]) > 1e-9 {
			t.Fatal("invert(apply) should round-trip")
		}
	}
	sd := sc.invertStd([]float64{1})
	// Population variance of xs is (9+1+1+9)/4 = 5.
	if want := math.Sqrt(5); math.Abs(sd[0]-want) > 1e-9 {
		t.Fatalf("std scale = %v, want %v", sd[0], want)
	}
}

func TestScalerConstantSeries(t *testing.T) {
	sc := newScaler([]float64{5, 5, 5})
	out := sc.apply(nil, []float64{5})
	if out[0] != 0 {
		t.Fatal("constant series should normalize to 0 without dividing by 0")
	}
}

func TestDecomposeSeparatesTrendAndCycle(t *testing.T) {
	n := 96
	series := make([]float64, n)
	for i := range series {
		series[i] = 0.5*float64(i) + 10*math.Sin(2*math.Pi*float64(i)/24)
	}
	trend, cyc := Decompose(series, 25)
	// Sum reconstructs exactly.
	for i := range series {
		if math.Abs(trend[i]+cyc[i]-series[i]) > 1e-9 {
			t.Fatal("trend + cyclical must reconstruct the series")
		}
	}
	// Trend in the interior should be close to the linear ramp.
	for i := 24; i < n-24; i++ {
		if math.Abs(trend[i]-0.5*float64(i)) > 1.0 {
			t.Fatalf("trend[%d] = %v, want ≈%v", i, trend[i], 0.5*float64(i))
		}
	}
	// Cyclical component has near-zero mean in the interior.
	if m := stats.Mean(cyc[24 : n-24]); math.Abs(m) > 0.5 {
		t.Fatalf("cyclical mean = %v, want ≈0", m)
	}
}

func TestDecomposeEdgeCases(t *testing.T) {
	trend, cyc := Decompose(nil, 5)
	if len(trend) != 0 || len(cyc) != 0 {
		t.Fatal("empty series")
	}
	trend, _ = Decompose([]float64{7}, 9)
	if trend[0] != 7 {
		t.Fatal("singleton series trend is itself")
	}
	// Even kernels round up; kernel 1 is identity.
	trend, cyc = Decompose([]float64{1, 2, 3}, 1)
	for i, v := range []float64{1, 2, 3} {
		if trend[i] != v || cyc[i] != 0 {
			t.Fatal("kernel 1 should be identity")
		}
	}
}

func TestReflectIndexing(t *testing.T) {
	n := 5
	cases := map[int]int{-1: 0, -2: 1, 0: 0, 4: 4, 5: 4, 6: 3}
	for in, want := range cases {
		if got := reflect(in, n); got != want {
			t.Fatalf("reflect(%d, %d) = %d, want %d", in, n, got, want)
		}
	}
	if reflect(3, 1) != 0 {
		t.Fatal("n=1 always maps to 0")
	}
}

func TestMovingAverageMatrixMatchesDecompose(t *testing.T) {
	series := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	kernel := 3
	trend, _ := Decompose(series, kernel)
	ma := MovingAverageMatrix(len(series), kernel)
	for i := range series {
		got := 0.0
		for j := range series {
			got += ma.Data[i*len(series)+j] * series[j]
		}
		if math.Abs(got-trend[i]) > 1e-12 {
			t.Fatalf("row %d: matrix %v vs direct %v", i, got, trend[i])
		}
	}
}

func TestNaivePeak(t *testing.T) {
	hist := make([]float64, 200)
	for i := range hist {
		hist[i] = float64(i % 50)
	}
	hist[150] = 99 // peak within last 168
	ex := Example{History: hist, Future: make([]float64, 4)}
	var m NaivePeak
	if err := m.Fit(nil); err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(ex)
	for _, v := range pred {
		if v != 99 {
			t.Fatalf("peak prediction = %v, want 99", v)
		}
	}
	mu, sigma := m.PredictDist(ex)
	if mu[0] != 99 || sigma[0] > 1e-6 {
		t.Fatal("distributional naive should be degenerate")
	}
}

func TestNaivePeakShortHistory(t *testing.T) {
	ex := Example{History: []float64{1, 5, 2}, Future: make([]float64, 2)}
	pred := NaivePeak{}.Predict(ex)
	if pred[0] != 5 {
		t.Fatalf("short-history peak = %v, want 5", pred[0])
	}
}

func TestSeasonalNaive(t *testing.T) {
	hist := make([]float64, 48)
	for i := range hist {
		hist[i] = float64(i % 24)
	}
	ex := Example{History: hist, Future: make([]float64, 30)}
	pred := SeasonalNaive{}.Predict(ex)
	for i := 0; i < 30; i++ {
		want := float64((48 + i) % 24)
		if pred[i] != want {
			t.Fatalf("step %d = %v, want %v", i, pred[i], want)
		}
	}
	if (SeasonalNaive{}).Name() != "SeasonalNaive" {
		t.Fatal("name")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	// A constant predictor against known targets gives closed-form
	// metrics.
	exs := []Example{{History: []float64{2, 2}, Future: []float64{1, 3}}}
	m := constModel{value: 2}
	acc := Evaluate(m, exs)
	if acc.MAE != 1 || acc.MSE != 1 || acc.RMSE != 1 {
		t.Fatalf("acc = %+v", acc)
	}
	wantMAPE := (1.0/1 + 1.0/3) / 2
	if math.Abs(acc.MAPE-wantMAPE) > 1e-12 {
		t.Fatalf("MAPE = %v, want %v", acc.MAPE, wantMAPE)
	}
	if (Evaluate(m, nil) != Accuracy{}) {
		t.Fatal("empty test set → zero metrics")
	}
}

type constModel struct{ value float64 }

func (c constModel) Name() string        { return "const" }
func (c constModel) Fit([]Example) error { return nil }
func (c constModel) Predict(ex Example) []float64 {
	out := make([]float64, len(ex.Future))
	for i := range out {
		out[i] = c.value
	}
	return out
}

type constDist struct {
	constModel
	sigma float64
}

func (c constDist) PredictDist(ex Example) ([]float64, []float64) {
	mu := c.Predict(ex)
	sd := make([]float64, len(mu))
	for i := range sd {
		sd[i] = c.sigma
	}
	return mu, sd
}

func TestMAQEAndCoverage(t *testing.T) {
	exs := []Example{{History: []float64{10, 10}, Future: []float64{10, 10, 10, 10}}}
	m := constDist{constModel{value: 10}, 1.0}
	// Perfect mean, σ=1: 0.95-quantile is 10+1.645; gap/mean = 0.1645.
	got := MAQE(m, exs, 0.95)
	want := stats.NormICDF(0.95) / 10
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MAQE = %v, want %v", got, want)
	}
	// Every actual ≤ q95 → coverage 1.
	if Coverage(m, exs, 0.95) != 1 {
		t.Fatal("coverage should be 1")
	}
	if MAQE(m, nil, 0.95) != 0 || Coverage(m, nil, 0.95) != 0 {
		t.Fatal("empty sets → 0")
	}
}
