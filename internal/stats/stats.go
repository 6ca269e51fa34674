// Package stats provides the statistical utilities used throughout
// the reproduction: percentiles, empirical CDFs, and scheduling
// metric accumulators (JCT, JQT, eviction rate, allocation rate).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,1]) using linear
// interpolation between order statistics. It returns 0 for an empty
// slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

// Median is the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns the empirical cumulative distribution of xs as sorted
// (value, probability) steps with duplicates merged.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var out []CDFPoint
	for i := 0; i < len(s); i++ {
		// Merge ties: advance to the last equal value.
		j := i
		for j+1 < len(s) && s[j+1] == s[i] {
			j++
		}
		out = append(out, CDFPoint{X: s[i], P: float64(j+1) / n})
		i = j
	}
	return out
}

// CDFAt evaluates an empirical CDF at x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range cdf {
		if pt.X > x {
			break
		}
		p = pt.P
	}
	return p
}

// NormICDF is the inverse CDF (quantile function) of the standard
// normal distribution, used for the ICDF upper bounds of §3.3.1.
func NormICDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}
