package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantilesMatchPercentile: Quantiles must agree with Percentile
// for every p, over empty, single-sample and random inputs — it is
// the same estimator, just amortizing the sort.
func TestQuantilesMatchPercentile(t *testing.T) {
	ps := []float64{-0.5, 0, 0.25, 0.5, 0.75, 0.95, 0.99, 1, 1.5}
	cases := [][]float64{
		nil,
		{},
		{42},
		{1, 2},
		{3, 1, 2, 2, 5},
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 20; n++ {
		xs := make([]float64, rng.Intn(200))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		cases = append(cases, xs)
	}
	for ci, xs := range cases {
		got := Quantiles(xs, ps...)
		for i, p := range ps {
			if want := Percentile(xs, p); got[i] != want {
				t.Fatalf("case %d p=%g: Quantiles %g != Percentile %g", ci, p, got[i], want)
			}
		}
	}
}

// TestPercentileEdges pins the interpolation contract: empty → 0,
// single sample → that sample at every p, exact order statistics at
// grid points, linear interpolation between them, and clamping at
// p ≤ 0 / p ≥ 1.
func TestPercentileEdges(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %g, want 0", got)
	}
	for _, p := range []float64{-1, 0, 0.3, 1, 2} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("single-sample percentile(p=%g) = %g, want 7", p, got)
		}
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0.25); got != 20 {
		t.Fatalf("grid-point percentile = %g, want 20", got)
	}
	if got := Percentile(xs, 0.375); got != 25 {
		t.Fatalf("interpolated percentile = %g, want 25", got)
	}
	if got := Percentile(xs, -0.1); got != 10 {
		t.Fatalf("p<0 percentile = %g, want min", got)
	}
	if got := Percentile(xs, 1.1); got != 50 {
		t.Fatalf("p>1 percentile = %g, want max", got)
	}
}

// TestPercentileMonotonic: for any data, the percentile function must
// be nondecreasing in p and bounded by [min, max].
func TestPercentileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 50; n++ {
		xs := make([]float64, 1+rng.Intn(100))
		for i := range xs {
			xs[i] = rng.Float64()*2000 - 1000
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.01 {
			q := Percentile(xs, p)
			if q < prev {
				t.Fatalf("percentile not monotonic: p=%g gave %g after %g", p, q, prev)
			}
			if q < Min(xs) || q > Max(xs) {
				t.Fatalf("percentile %g outside data range [%g,%g]", q, Min(xs), Max(xs))
			}
			prev = q
		}
	}
}
