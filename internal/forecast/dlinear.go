package forecast

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// DLinearConfig parameterizes the DLinear baseline (Zeng et al.,
// AAAI '23): trend/seasonal decomposition followed by one linear map
// per component.
type DLinearConfig struct {
	Kernel int
	TrainConfig
}

// DefaultDLinearConfig returns the experiment settings.
func DefaultDLinearConfig() DLinearConfig {
	return DLinearConfig{Kernel: 25, TrainConfig: TrainConfig{Epochs: 40, LR: 0.01, BatchSize: 16, Seed: 1}}
}

// DLinear is the linear decomposition point forecaster.
type DLinear struct {
	cfg       DLinearConfig
	l         int
	trendHead *nn.Linear
	cycHead   *nn.Linear
	params    []*tensor.Tensor
}

// NewDLinear creates an untrained DLinear model.
func NewDLinear(cfg DLinearConfig) *DLinear {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	cfg.Kernel = oddKernel(cfg.Kernel)
	return &DLinear{cfg: cfg}
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
	return fit(m.cfg.TrainConfig, train, m.cfg.Kernel, m.build, mse(m.forward))
}

// Predict implements Forecaster.
func (m *DLinear) Predict(ex Example) []float64 {
	return predict(m.params, ex, m.cfg.Kernel, m.forward)
}
