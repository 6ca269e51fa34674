package forecast

import (
	"math"
	"math/rand"
	"sort"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// Autoformer's fixed widths and schedule.
const (
	autoformerDim       = 16
	autoformerKernel    = 25 // moving-average window of the decomposition
	autoformerTopK      = 3  // lags aggregated by auto-correlation
	autoformerLR        = 0.005
	autoformerBatchSize = 8
)

// Autoformer is the decomposition + auto-correlation forecaster of Wu
// et al. (NeurIPS '21): progressive series decomposition with an
// auto-correlation mechanism in place of dot-product attention.
type Autoformer struct {
	epochs int

	inProj       *nn.Linear
	wv           *nn.Linear
	lnGain       *tensor.Tensor
	lnBias       *tensor.Tensor
	seasonalHead *nn.Linear
	trendHead    *nn.Linear
	maMatrix     *tensor.Tensor // constant decomposition operator

	params []*tensor.Tensor
}

// NewAutoformer creates an untrained Autoformer that trains for the
// given number of epochs.
func NewAutoformer(epochs int) *Autoformer {
	return &Autoformer{epochs: epochs}
}

// Name implements Forecaster.
func (m *Autoformer) Name() string { return "Autoformer" }

func (m *Autoformer) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	d := autoformerDim
	m.inProj = nn.NewLinear(3, d, rng)
	m.wv = nn.NewLinear(d, d, rng)
	m.lnGain, m.lnBias = onesRow(d), tensor.New(1, d)
	m.seasonalHead = nn.NewLinear(d, h, rng)
	m.trendHead = nn.NewLinear(d, h, rng)
	m.maMatrix = MovingAverageMatrix(l, autoformerKernel)
	m.params = nn.CollectParams(m.inProj, m.wv, m.seasonalHead, m.trendHead)
	m.params = append(m.params, m.lnGain, m.lnBias)
	return m.params
}

// decomp splits a sequence representation into (seasonal, trend)
// using the constant moving-average operator; both remain
// differentiable because the operator is a plain MatMul.
func (m *Autoformer) decomp(tp *tensor.Tape, x *tensor.Tensor) (seasonal, trend *tensor.Tensor) {
	trend = tp.MatMul(m.maMatrix, x)
	seasonal = tp.Sub(x, trend)
	return seasonal, trend
}

// autoCorrelate implements the auto-correlation mechanism: the lag
// weights come from the series' own autocorrelation (period-based
// dependencies), and aggregation rolls the value sequence by each
// selected lag. Lag selection and weights are data-driven constants;
// gradients flow through the value projection.
func (m *Autoformer) autoCorrelate(tp *tensor.Tape, x *tensor.Tensor, hist []float64) *tensor.Tensor {
	v := m.wv.Forward(tp, x)
	lags, weights := topAutocorrLags(hist, autoformerTopK)
	var agg *tensor.Tensor
	for i, lag := range lags {
		rolled := tp.Gather(v, rollIndices(x.Rows, lag))
		term := tp.Scale(rolled, weights[i])
		if agg == nil {
			agg = term
		} else {
			agg = tp.Add(agg, term)
		}
	}
	return agg
}

// rollIndices returns the index permutation of a circular shift by
// lag (the "time delay aggregation" roll).
func rollIndices(n, lag int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = ((i+lag)%n + n) % n
	}
	return idx
}

// topAutocorrLags computes the autocorrelation of the scaled history
// and returns the k most correlated positive lags with softmax
// weights.
func topAutocorrLags(hist []float64, k int) (lags []int, weights []float64) {
	n := len(hist)
	maxLag := n / 2
	if maxLag < 1 {
		return []int{0}, []float64{1}
	}
	type lc struct {
		lag int
		r   float64
	}
	var cands []lc
	for lag := 1; lag <= maxLag; lag++ {
		s := 0.0
		for t := lag; t < n; t++ {
			s += hist[t] * hist[t-lag]
		}
		cands = append(cands, lc{lag: lag, r: s / float64(n-lag)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].r != cands[b].r {
			return cands[a].r > cands[b].r
		}
		return cands[a].lag < cands[b].lag
	})
	if k > len(cands) {
		k = len(cands)
	}
	var raw []float64
	for i := 0; i < k; i++ {
		lags = append(lags, cands[i].lag)
		raw = append(raw, cands[i].r)
	}
	// Softmax over the selected correlations.
	maxR := math.Inf(-1)
	for _, r := range raw {
		if r > maxR {
			maxR = r
		}
	}
	sum := 0.0
	weights = make([]float64, len(raw))
	for i, r := range raw {
		weights[i] = math.Exp(r - maxR)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
	}
	return lags, weights
}

func (m *Autoformer) forward(tp *tensor.Tape, w window) *tensor.Tensor {
	x := m.inProj.Forward(tp, seqInput(tp, w))
	seasonal, trend := m.decomp(tp, x)
	ac := m.autoCorrelate(tp, seasonal, w.hist)
	seasonal = tp.LayerNorm(tp.Add(seasonal, ac), m.lnGain, m.lnBias, 1e-5)
	// Progressive decomposition: refine once more after mixing.
	seasonal2, trend2 := m.decomp(tp, seasonal)
	trendAll := tp.Add(trend, trend2)
	ys := m.seasonalHead.Forward(tp, tp.MeanRows(seasonal2))
	yt := m.trendHead.Forward(tp, tp.MeanRows(trendAll))
	return tp.Add(ys, yt)
}

// Fit implements Forecaster.
func (m *Autoformer) Fit(train []Example) error {
	tc := trainConfig{epochs: m.epochs, lr: autoformerLR, batchSize: autoformerBatchSize}
	return fit(tc, train, 0, m.build, mse(m.forward))
}

// Predict implements Forecaster.
func (m *Autoformer) Predict(ex Example) []float64 {
	return predict(m.params, ex, 0, m.forward)
}
