// Package forecast implements the paper's GPU demand forecasting
// stack: the OrgLinear model (§3.2) and the six baselines of Fig. 10
// (Transformer, Informer, Autoformer, FEDformer, DLinear, DeepAR),
// plus the naive previous-week-peak predictor used by the GFS-e
// ablation. All models train on the pure-Go autodiff engine in
// internal/tensor.
package forecast

import (
	"fmt"
	"math"

	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// OrgMeta carries the business attributes V_o the paper embeds
// (Eq. 4): organization, cluster and GPU model identities as small
// integer ids.
type OrgMeta struct {
	OrgID     int
	ClusterID int
	ModelID   int
}

// Example is one training or evaluation window: L hours of history
// predicting H hours of future demand.
type Example struct {
	// History is χ_o, the demand over the L input hours.
	History []float64
	// StartHour is the hour index of History[0], from which
	// temporal features are derived.
	StartHour int
	// Future is the H-hour target y_o.
	Future []float64
	// Org is the business context.
	Org OrgMeta
}

// Forecaster is a point-forecast model.
type Forecaster interface {
	// Name identifies the model in reports.
	Name() string
	// Fit trains on the examples. All examples must share history
	// and horizon lengths.
	Fit(train []Example) error
	// Predict returns the H-step point forecast.
	Predict(ex Example) []float64
}

// Distributional extends Forecaster with Gaussian uncertainty, the
// form SQA's ICDF bounds consume.
type Distributional interface {
	Forecaster
	// PredictDist returns per-step means and standard deviations.
	PredictDist(ex Example) (mu, sigma []float64)
}

// Windows slices a demand series into examples with the given input
// length, horizon and stride.
func Windows(series []float64, startHour, l, h, stride int, meta OrgMeta) []Example {
	if stride <= 0 {
		stride = h
	}
	var out []Example
	for s := 0; s+l+h <= len(series); s += stride {
		out = append(out, Example{
			History:   series[s : s+l],
			StartHour: startHour + s,
			Future:    series[s+l : s+l+h],
			Org:       meta,
		})
	}
	return out
}

// SplitTrainTest divides examples chronologically, reserving the
// final testFrac share for evaluation.
func SplitTrainTest(exs []Example, testFrac float64) (train, test []Example) {
	n := len(exs)
	cut := n - int(float64(n)*testFrac)
	if cut < 1 {
		cut = 1
	}
	if cut > n {
		cut = n
	}
	return exs[:cut], exs[cut:]
}

// shapeOf validates a homogeneous example set and returns (L, H).
func shapeOf(exs []Example) (l, h int, err error) {
	if len(exs) == 0 {
		return 0, 0, fmt.Errorf("forecast: no examples")
	}
	l, h = len(exs[0].History), len(exs[0].Future)
	if l == 0 || h == 0 {
		return 0, 0, fmt.Errorf("forecast: empty window (history %d, future %d)", l, h)
	}
	for i, ex := range exs {
		if len(ex.History) != l || len(ex.Future) != h {
			return 0, 0, fmt.Errorf("forecast: example %d shape (%d,%d) != (%d,%d)",
				i, len(ex.History), len(ex.Future), l, h)
		}
		// One NaN or ±Inf would turn every trained parameter, and so
		// every forecast, into NaN.
		if j := nonFinite(ex.History); j >= 0 {
			return 0, 0, fmt.Errorf("forecast: example %d history[%d] = %v is not finite", i, j, ex.History[j])
		}
		if j := nonFinite(ex.Future); j >= 0 {
			return 0, 0, fmt.Errorf("forecast: example %d future[%d] = %v is not finite", i, j, ex.Future[j])
		}
	}
	return l, h, nil
}

// nonFinite returns the index of xs's first NaN or ±Inf, or -1.
func nonFinite(xs []float64) int {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// scaler standardizes one example by its history statistics, the
// usual per-window normalization for demand series.
type scaler struct {
	mean, std float64
}

func newScaler(history []float64) scaler {
	m := 0.0
	for _, v := range history {
		m += v
	}
	m /= float64(len(history))
	v := 0.0
	for _, x := range history {
		d := x - m
		v += d * d
	}
	v /= float64(len(history))
	sd := math.Sqrt(v)
	if sd < 1e-6 {
		sd = 1
	}
	return scaler{mean: m, std: sd}
}

// apply appends the standardized xs to dst.
func (s scaler) apply(dst, xs []float64) []float64 {
	for _, x := range xs {
		dst = append(dst, (x-s.mean)/s.std)
	}
	return dst
}

// invert maps standardized values back to demand units, in place.
func (s scaler) invert(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = x*s.std + s.mean
	}
	return xs
}

// invertStd maps standardized deviations back to demand units, in
// place, flooring them at 1e-9.
func (s scaler) invertStd(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = max(x*s.std, 1e-9)
	}
	return xs
}

// hourFeatures decodes the temporal features of an hour index. Every
// forecaster reads the holiday-free calendar, which a nil calendar is.
func hourFeatures(hour int) timefeat.Features {
	return (*timefeat.Calendar)(nil).AtHour(hour)
}
