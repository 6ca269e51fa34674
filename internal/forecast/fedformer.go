package forecast

import (
	"math"
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// FEDformer's fixed widths and schedule.
const (
	fedformerDim       = 16
	fedformerKernel    = 25 // moving-average window of the decomposition
	fedformerModes     = 8  // Fourier modes mixed, at most L/2
	fedformerLR        = 0.005
	fedformerBatchSize = 8
)

// FEDformer is the frequency-enhanced decomposition forecaster of
// Zhou et al. (ICML '22): a frequency-enhanced block that mixes a
// subset of Fourier modes with learnable complex weights, combined
// with series decomposition.
type FEDformer struct {
	epochs int
	l      int

	inProj       *nn.Linear
	wRe, wIm     *tensor.Tensor // learnable complex mode weights (modes×dim)
	lnGain       *tensor.Tensor
	lnBias       *tensor.Tensor
	seasonalHead *nn.Linear
	trendHead    *nn.Linear
	maMatrix     *tensor.Tensor
	fRe, fIm     *tensor.Tensor // constant DFT matrices (modes×seq)

	params []*tensor.Tensor
}

// NewFEDformer creates an untrained FEDformer that trains for the
// given number of epochs.
func NewFEDformer(epochs int) *FEDformer {
	return &FEDformer{epochs: epochs}
}

// Name implements Forecaster.
func (m *FEDformer) Name() string { return "FEDformer" }

func (m *FEDformer) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	d := fedformerDim
	modes := fedformerModes
	if modes > l/2 {
		modes = l / 2
	}
	if modes < 1 {
		modes = 1
	}
	m.inProj = nn.NewLinear(3, d, rng)
	m.wRe = tensor.Randn(modes, d, 0.3, rng)
	m.wIm = tensor.Randn(modes, d, 0.3, rng)
	m.lnGain, m.lnBias = onesRow(d), tensor.New(1, d)
	m.seasonalHead = nn.NewLinear(d, h, rng)
	m.trendHead = nn.NewLinear(d, h, rng)

	m.maMatrix = MovingAverageMatrix(l, fedformerKernel)
	// Low-frequency DFT selection: mode k row holds cos/sin basis.
	m.fRe = tensor.New(modes, l)
	m.fIm = tensor.New(modes, l)
	for k := 0; k < modes; k++ {
		for t := 0; t < l; t++ {
			angle := 2 * math.Pi * float64(k+1) * float64(t) / float64(l)
			m.fRe.Set(k, t, math.Cos(angle))
			m.fIm.Set(k, t, -math.Sin(angle))
		}
	}
	m.params = nn.CollectParams(m.inProj, m.seasonalHead, m.trendHead)
	m.params = append(m.params, m.wRe, m.wIm, m.lnGain, m.lnBias)
	m.l = l
	return m.params
}

// freqBlock applies the frequency-enhanced transform: project the
// sequence onto the selected Fourier modes (a constant linear map),
// multiply by learnable complex weights, and project back.
func (m *FEDformer) freqBlock(tp *tensor.Tape, x *tensor.Tensor) *tensor.Tensor {
	xRe := tp.MatMul(m.fRe, x) // modes×dim
	xIm := tp.MatMul(m.fIm, x)
	// Complex multiply: (xRe + i·xIm)(wRe + i·wIm).
	yRe := tp.Sub(tp.Mul(xRe, m.wRe), tp.Mul(xIm, m.wIm))
	yIm := tp.Add(tp.Mul(xRe, m.wIm), tp.Mul(xIm, m.wRe))
	// Inverse transform restricted to the selected modes. The 2/L
	// factor of the real inverse DFT is absorbed into the weights;
	// we keep it for well-scaled initialization.
	scale := 2 / float64(m.l)
	back := tp.Sub(
		tp.TMatMul(m.fRe, yRe), // fReᵀ·yRe (seq×dim)
		tp.TMatMul(m.fIm, yIm),
	)
	return tp.Scale(back, scale)
}

func (m *FEDformer) forward(tp *tensor.Tape, w window) *tensor.Tensor {
	x := m.inProj.Forward(tp, seqInput(tp, w))
	trend := tp.MatMul(m.maMatrix, x)
	seasonal := tp.Sub(x, trend)
	fe := m.freqBlock(tp, seasonal)
	seasonal = tp.LayerNorm(tp.Add(seasonal, fe), m.lnGain, m.lnBias, 1e-5)
	ys := m.seasonalHead.Forward(tp, tp.MeanRows(seasonal))
	yt := m.trendHead.Forward(tp, tp.MeanRows(trend))
	return tp.Add(ys, yt)
}

// Fit implements Forecaster.
func (m *FEDformer) Fit(train []Example) error {
	tc := trainConfig{epochs: m.epochs, lr: fedformerLR, batchSize: fedformerBatchSize}
	return fit(tc, train, 0, m.build, mse(m.forward))
}

// Predict implements Forecaster.
func (m *FEDformer) Predict(ex Example) []float64 {
	return predict(m.params, ex, 0, m.forward)
}
