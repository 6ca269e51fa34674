package forecast

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// DLinear's fixed decomposition window and schedule.
const (
	dlinearKernel    = 25
	dlinearLR        = 0.01
	dlinearBatchSize = 16
)

// DLinear is the linear decomposition point forecaster of Zeng et
// al. (AAAI '23): trend/seasonal decomposition followed by one linear
// map per component.
type DLinear struct {
	epochs    int
	l         int
	trendHead *nn.Linear
	cycHead   *nn.Linear
	params    []*tensor.Tensor
}

// NewDLinear creates an untrained DLinear model that trains for the
// given number of epochs.
func NewDLinear(epochs int) *DLinear {
	return &DLinear{epochs: epochs}
}

// Name implements Forecaster.
func (m *DLinear) Name() string { return "DLinear" }

func (m *DLinear) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	m.l = l
	m.trendHead = nn.NewLinear(l, h, rng)
	m.cycHead = nn.NewLinear(l, h, rng)
	m.params = nn.CollectParams(m.trendHead, m.cycHead)
	return m.params
}

func (m *DLinear) forward(tp *tensor.Tape, w window) *tensor.Tensor {
	yt := m.trendHead.Forward(tp, tp.Leaf(1, m.l, w.trend))
	yc := m.cycHead.Forward(tp, tp.Leaf(1, m.l, w.cyc))
	return tp.Add(yt, yc)
}

// Fit implements Forecaster.
func (m *DLinear) Fit(train []Example) error {
	tc := trainConfig{epochs: m.epochs, lr: dlinearLR, batchSize: dlinearBatchSize}
	return fit(tc, train, dlinearKernel, m.build, mse(m.forward))
}

// Predict implements Forecaster.
func (m *DLinear) Predict(ex Example) []float64 {
	return predict(m.params, ex, dlinearKernel, m.forward)
}
