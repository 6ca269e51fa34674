package forecast

import "github.com/sjtucitlab/gfs/internal/tensor"

// Decompose splits a series into trend and cyclical components using
// the paper's domain-adaptive sliding kernel (Eqs. 1–2): a moving
// average with reflection padding to suppress boundary effects.
// kernel must be positive; even kernels are rounded up to the next
// odd size for symmetry.
func Decompose(series []float64, kernel int) (trend, cyclical []float64) {
	trend = make([]float64, len(series))
	cyclical = make([]float64, len(series))
	decompose(series, kernel, trend, cyclical)
	return trend, cyclical
}

// decompose is Decompose into trend and cyclical, which must be as long
// as series.
func decompose(series []float64, kernel int, trend, cyclical []float64) {
	n := len(series)
	kernel = oddKernel(kernel)
	half := kernel / 2
	for i := 0; i < n; i++ {
		sum := 0.0
		if i >= half && i+half < n {
			// Inside the series the window needs no reflection: the
			// same additions, in the same order.
			for _, v := range series[i-half : i+half+1] {
				sum += v
			}
		} else {
			for k := -half; k <= half; k++ {
				sum += series[reflect(i+k, n)]
			}
		}
		trend[i] = sum / float64(kernel)
		cyclical[i] = series[i] - trend[i]
	}
}

// oddKernel is the moving-average width used for kernel: at least 1,
// and odd.
func oddKernel(kernel int) int {
	if kernel < 1 {
		return 1
	}
	return kernel | 1
}

// reflect maps an out-of-range index back inside [0, n) by mirroring
// at the boundaries (…2 1 0 | 0 1 2 … n−1 | n−1 n−2…).
func reflect(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * n
	i %= period
	if i < 0 {
		i += period
	}
	if i >= n {
		i = period - 1 - i
	}
	return i
}

// MovingAverageMatrix builds the n×n constant matrix A such that A·x
// equals the reflected moving average of x, the trend Decompose
// computes. Autoformer and FEDformer use it to make decomposition a
// differentiable linear map.
func MovingAverageMatrix(n, kernel int) *tensor.Tensor {
	kernel = oddKernel(kernel)
	half := kernel / 2
	w := 1.0 / float64(kernel)
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for k := -half; k <= half; k++ {
			a.Data[i*n+reflect(i+k, n)] += w
		}
	}
	return a
}
