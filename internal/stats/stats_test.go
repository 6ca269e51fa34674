package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	approx(t, Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 5, 1e-12, "mean")
	if Mean(nil) != 0 {
		t.Fatal("empty input should return 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be ±Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Percentile(xs, 0), 1, 0, "p0")
	approx(t, Percentile(xs, 1), 5, 0, "p100")
	approx(t, Percentile(xs, 0.5), 3, 0, "p50")
	approx(t, Percentile(xs, 0.25), 2, 0, "p25")
	approx(t, Percentile(xs, 0.1), 1.4, 1e-12, "p10 interpolated")
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if Median(xs) != 3 {
		t.Fatal("median")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile must not mutate its input")
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 1, 2, 4})
	if len(cdf) != 3 {
		t.Fatalf("cdf len = %d, want 3 (ties merged)", len(cdf))
	}
	approx(t, cdf[0].P, 0.5, 1e-12, "P(≤1)")
	approx(t, cdf[1].P, 0.75, 1e-12, "P(≤2)")
	approx(t, cdf[2].P, 1.0, 1e-12, "P(≤4)")
	approx(t, CDFAt(cdf, 1.5), 0.5, 1e-12, "CDFAt(1.5)")
	approx(t, CDFAt(cdf, 0.5), 0, 1e-12, "CDFAt below min")
	approx(t, CDFAt(cdf, 9), 1, 1e-12, "CDFAt above max")
	if CDF(nil) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestNormICDF(t *testing.T) {
	approx(t, NormICDF(0.5), 0, 1e-12, "median")
	approx(t, NormICDF(0.975), 1.959964, 1e-5, "97.5%")
	approx(t, NormICDF(0.9), 1.281552, 1e-5, "90%")
	if !math.IsInf(NormICDF(0), -1) || !math.IsInf(NormICDF(1), 1) {
		t.Fatal("boundary quantiles should be infinite")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e6)
		}
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := Percentile(xs, pa), Percentile(xs, pb)
		return qa <= qb+1e-9 && qa >= Min(xs)-1e-9 && qb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is nondecreasing and ends at 1.
func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(20))
		}
		cdf := CDF(xs)
		prev := 0.0
		for _, pt := range cdf {
			if pt.P < prev {
				t.Fatal("CDF must be nondecreasing")
			}
			prev = pt.P
		}
		approx(t, cdf[len(cdf)-1].P, 1, 1e-12, "CDF ends at 1")
		if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].X < cdf[j].X }) {
			t.Fatal("CDF X must be sorted")
		}
	}
}
