package forecast

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// DeepAR's fixed width and schedule.
const (
	deepARHidden    = 16 // LSTM state width
	deepARLR        = 0.01
	deepARBatchSize = 8
)

// DeepAR is the probabilistic RNN forecaster of Salinas et al.: an
// autoregressive LSTM with a Gaussian output head.
type DeepAR struct {
	epochs    int
	l, h      int
	cell      *nn.LSTMCell
	muHead    *nn.Linear
	sigmaHead *nn.Linear
	params    []*tensor.Tensor
}

// NewDeepAR creates an untrained DeepAR model that trains for the
// given number of epochs.
func NewDeepAR(epochs int) *DeepAR {
	return &DeepAR{epochs: epochs}
}

// Name implements Forecaster.
func (m *DeepAR) Name() string { return "DeepAR" }

// deepARInputs is the width of one LSTM step's input:
// [prev value, hour/24, weekday/7].
const deepARInputs = 3

func (m *DeepAR) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	m.l, m.h = l, h
	m.cell = nn.NewLSTMCell(deepARInputs, deepARHidden, rng)
	m.muHead = nn.NewLinear(deepARHidden, 1, rng)
	m.sigmaHead = nn.NewLinear(deepARHidden, 1, rng)
	m.params = nn.CollectParams(m.cell, m.muHead, m.sigmaHead)
	return m.params
}

func (m *DeepAR) stepInput(tp *tensor.Tape, prev float64, hour int) *tensor.Tensor {
	f := hourFeatures(hour)
	return tp.Leaf(1, deepARInputs, []float64{
		prev,
		float64(f.Hour) / 24,
		float64(f.Weekday) / 7,
	})
}

// decode conditions the LSTM on the window's scaled history, then
// produces the (1×H) mu and sigma rows. When teacher is non-nil those
// (scaled) values feed the next step; otherwise the predicted mean
// feeds back (free-running).
func (m *DeepAR) decode(tp *tensor.Tape, w window, teacher []float64) (mu, sigma *tensor.Tensor) {
	var h, c *tensor.Tensor
	prev := 0.0
	for t, v := range w.hist {
		h, c = m.cell.Step(tp, m.stepInput(tp, prev, w.ex.StartHour+t), h, c)
		prev = v
	}
	var mus, sigmas []*tensor.Tensor
	for t := 0; t < m.h; t++ {
		x := m.stepInput(tp, prev, w.ex.StartHour+m.l+t)
		h, c = m.cell.Step(tp, x, h, c)
		mu := m.muHead.Forward(tp, h)
		sigma := tp.AddScalar(tp.Softplus(m.sigmaHead.Forward(tp, h)), 1e-4)
		mus = append(mus, mu)
		sigmas = append(sigmas, sigma)
		if teacher != nil {
			prev = teacher[t]
		} else {
			prev = mu.Data[0]
		}
	}
	return tp.ConcatCols(mus...), tp.ConcatCols(sigmas...)
}

// Fit implements Forecaster via teacher-forced maximum likelihood.
func (m *DeepAR) Fit(train []Example) error {
	tc := trainConfig{epochs: m.epochs, lr: deepARLR, batchSize: deepARBatchSize}
	return fit(tc, train, 0, m.build, nll(func(tp *tensor.Tape, w window) (mu, sigma *tensor.Tensor) {
		return m.decode(tp, w, w.future)
	}))
}

// PredictDist implements Distributional (free-running decode).
func (m *DeepAR) PredictDist(ex Example) (mu, sigma []float64) {
	return predictDist(m.params, ex, 0, func(tp *tensor.Tape, w window) (mu, sigma *tensor.Tensor) {
		return m.decode(tp, w, nil)
	})
}

// Predict implements Forecaster.
func (m *DeepAR) Predict(ex Example) []float64 {
	mu, _ := m.PredictDist(ex)
	return mu
}
