package stats

import (
	"math"
	"sort"
)

// Quantiles returns the percentiles of xs at each p in ps (each in
// [0,1]), sorting xs in place once, so the caller passes a slice it
// owns and reads anything order-dependent (a mean, say) first. It
// matches Percentile exactly for every p, including the empty-slice
// (0) and single-sample cases.
func Quantiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, p := range ps {
		out[i] = quantileSorted(xs, p)
	}
	return out
}

// quantileSorted interpolates the p-th percentile of already-sorted
// data, the shared kernel of Percentile and Quantiles.
func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := float64(p * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac) // rounded, so never fused
}
