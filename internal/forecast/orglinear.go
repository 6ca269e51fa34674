package forecast

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// OrgLinearConfig parameterizes the OrgLinear model (Fig. 7).
type OrgLinearConfig struct {
	// Kernel is the moving-average window of the trend/cyclical
	// decomposition (Eq. 1).
	Kernel int
	// EmbedDim is the width of each temporal and business
	// embedding.
	EmbedDim int
	// Vocab sizes for the business attributes.
	NumOrgs, NumClusters, NumModels int
	// TrainConfig drives MLE training (Eq. 8).
	TrainConfig
	// Calendar resolves hour indices to temporal features.
	Calendar *timefeat.Calendar
}

// DefaultOrgLinearConfig returns the settings used by the
// experiments.
func DefaultOrgLinearConfig() OrgLinearConfig {
	return OrgLinearConfig{
		Kernel:   25,
		EmbedDim: 4,
		NumOrgs:  16, NumClusters: 8, NumModels: 8,
		TrainConfig: TrainConfig{Epochs: 40, LR: 0.01, BatchSize: 16, Seed: 1},
		Calendar:    timefeat.NewCalendar(),
	}
}

// OrgLinear is the paper's hierarchical probabilistic forecaster:
// decomposition into trend and cyclical parts, temporal and business
// embeddings, two parallel linear heads for the mean (Eqs. 5–6) and a
// softplus variance head (Eq. 7), trained by Gaussian maximum
// likelihood (Eq. 8).
type OrgLinear struct {
	cfg OrgLinearConfig
	l   int

	hourEmb, weekEmb, holEmb *nn.Embedding
	orgEmb, clusterEmb       *nn.Embedding
	modelEmb                 *nn.Embedding
	bizAttn                  *nn.MultiHeadAttention

	cycHead   *nn.Linear
	trendHead *nn.Linear
	varHead   *nn.Linear

	params []*tensor.Tensor
}

// NewOrgLinear creates an untrained model; layer shapes are fixed at
// first Fit.
func NewOrgLinear(cfg OrgLinearConfig) *OrgLinear {
	if cfg.Calendar == nil {
		cfg.Calendar = timefeat.NewCalendar()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	cfg.Kernel = oddKernel(cfg.Kernel)
	return &OrgLinear{cfg: cfg}
}

// Name implements Forecaster.
func (m *OrgLinear) Name() string { return "OrgLinear" }

func (m *OrgLinear) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	e := m.cfg.EmbedDim
	hours, weeks, hols := timefeat.Dims()
	m.hourEmb = nn.NewEmbedding(hours, e, rng)
	m.weekEmb = nn.NewEmbedding(weeks, e, rng)
	m.holEmb = nn.NewEmbedding(hols, e, rng)
	m.orgEmb = nn.NewEmbedding(m.cfg.NumOrgs, e, rng)
	m.clusterEmb = nn.NewEmbedding(m.cfg.NumClusters, e, rng)
	m.modelEmb = nn.NewEmbedding(m.cfg.NumModels, e, rng)
	m.bizAttn = nn.NewMultiHeadAttention(e, 1, rng)
	ctxDim := e + 3*e // business (pooled) + temporal (concat of 3)
	m.cycHead = nn.NewLinear(l+ctxDim, h, rng)
	m.trendHead = nn.NewLinear(l+ctxDim, h, rng)
	m.varHead = nn.NewLinear(l+ctxDim, h, rng)
	m.params = nn.CollectParams(
		m.hourEmb, m.weekEmb, m.holEmb,
		m.orgEmb, m.clusterEmb, m.modelEmb,
		m.bizAttn, m.cycHead, m.trendHead, m.varHead,
	)
	m.l = l
	return m.params
}

// context assembles [c_o ⊕ c_t] (1×4e) for an example.
func (m *OrgLinear) context(tp *tensor.Tape, ex Example) *tensor.Tensor {
	// Business attention (Eq. 4): attend over the three attribute
	// embeddings, then pool.
	org := clampIdx(ex.Org.OrgID, m.cfg.NumOrgs)
	cl := clampIdx(ex.Org.ClusterID, m.cfg.NumClusters)
	mdl := clampIdx(ex.Org.ModelID, m.cfg.NumModels)
	rows := tp.ConcatRows(
		m.orgEmb.Forward(tp, []int{org}),
		m.clusterEmb.Forward(tp, []int{cl}),
		m.modelEmb.Forward(tp, []int{mdl}),
	)
	co := tp.MeanRows(m.bizAttn.Forward(tp, rows, nil))

	// Temporal features at the forecast origin (Eq. 3).
	hi, wi, hol := timeFeatureIndices(m.cfg.Calendar, ex.StartHour+m.l)
	ct := tp.ConcatCols(
		m.hourEmb.Forward(tp, []int{hi}),
		m.weekEmb.Forward(tp, []int{wi}),
		m.holEmb.Forward(tp, []int{hol}),
	)
	return tp.ConcatCols(co, ct)
}

func clampIdx(i, vocab int) int {
	if i < 0 {
		return 0
	}
	if i >= vocab {
		return vocab - 1
	}
	return i
}

// forward computes normalized (mu, sigma) rows (1×H each).
func (m *OrgLinear) forward(tp *tensor.Tape, w window) (mu, sigma *tensor.Tensor) {
	ctx := m.context(tp, w.ex)
	xc := tp.ConcatCols(tp.Leaf(1, m.l, w.cyc), ctx)
	xt := tp.ConcatCols(tp.Leaf(1, m.l, w.trend), ctx)
	xv := tp.ConcatCols(tp.Leaf(1, m.l, w.hist), ctx)
	yc := m.cycHead.Forward(tp, xc)
	yt := m.trendHead.Forward(tp, xt)
	mu = tp.Add(yc, yt)                            // Eq. 6
	sigma = tp.Softplus(m.varHead.Forward(tp, xv)) // Eq. 7
	sigma = tp.AddScalar(sigma, 1e-4)              // keep σ > 0
	return mu, sigma
}

// Fit implements Forecaster via minibatch Adam on the Gaussian NLL.
func (m *OrgLinear) Fit(train []Example) error {
	return fit(m.cfg.TrainConfig, train, m.cfg.Kernel, m.build, nll(m.forward))
}

// PredictDist implements Distributional.
func (m *OrgLinear) PredictDist(ex Example) (mu, sigma []float64) {
	return predictDist(m.params, ex, m.cfg.Kernel, m.forward)
}

// Predict implements Forecaster.
func (m *OrgLinear) Predict(ex Example) []float64 {
	mu, _ := m.PredictDist(ex)
	return mu
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
