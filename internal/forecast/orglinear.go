package forecast

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// OrgLinearConfig parameterizes the OrgLinear model (Fig. 7).
type OrgLinearConfig struct {
	// Epochs is the number of MLE training passes (Eq. 8).
	Epochs int
}

// DefaultOrgLinearConfig returns the settings used by the
// experiments.
func DefaultOrgLinearConfig() OrgLinearConfig {
	return OrgLinearConfig{Epochs: 40}
}

// OrgLinear's fixed architecture and schedule.
const (
	orgLinearKernel    = 25 // moving-average window of the decomposition (Eq. 1)
	orgLinearEmbedDim  = 4  // width of each temporal and business embedding
	orgLinearOrgs      = 16 // business-attribute vocabularies (Eq. 4)
	orgLinearClusters  = 8
	orgLinearModels    = 8
	orgLinearLR        = 0.01
	orgLinearBatchSize = 16
)

// OrgLinear is the paper's hierarchical probabilistic forecaster:
// decomposition into trend and cyclical parts, temporal and business
// embeddings, two parallel linear heads for the mean (Eqs. 5–6) and a
// softplus variance head (Eq. 7), trained by Gaussian maximum
// likelihood (Eq. 8).
type OrgLinear struct {
	epochs int
	l      int

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
	return &OrgLinear{epochs: cfg.Epochs}
}

// Name implements Forecaster.
func (m *OrgLinear) Name() string { return "OrgLinear" }

func (m *OrgLinear) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	e := orgLinearEmbedDim
	hours, weeks, hols := timefeat.Dims()
	m.hourEmb = nn.NewEmbedding(hours, e, rng)
	m.weekEmb = nn.NewEmbedding(weeks, e, rng)
	m.holEmb = nn.NewEmbedding(hols, e, rng)
	m.orgEmb = nn.NewEmbedding(orgLinearOrgs, e, rng)
	m.clusterEmb = nn.NewEmbedding(orgLinearClusters, e, rng)
	m.modelEmb = nn.NewEmbedding(orgLinearModels, e, rng)
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
	org := clampIdx(ex.Org.OrgID, orgLinearOrgs)
	cl := clampIdx(ex.Org.ClusterID, orgLinearClusters)
	mdl := clampIdx(ex.Org.ModelID, orgLinearModels)
	rows := tp.ConcatRows(
		m.orgEmb.Forward(tp, []int{org}),
		m.clusterEmb.Forward(tp, []int{cl}),
		m.modelEmb.Forward(tp, []int{mdl}),
	)
	co := tp.MeanRows(m.bizAttn.Forward(tp, rows, nil))

	// Temporal features at the forecast origin (Eq. 3).
	f := hourFeatures(ex.StartHour + m.l)
	ct := tp.ConcatCols(
		m.hourEmb.Forward(tp, []int{f.Hour}),
		m.weekEmb.Forward(tp, []int{f.Weekday}),
		m.holEmb.Forward(tp, []int{f.HolidayIndex()}),
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
	tc := trainConfig{epochs: m.epochs, lr: orgLinearLR, batchSize: orgLinearBatchSize}
	return fit(tc, train, orgLinearKernel, m.build, nll(m.forward))
}

// PredictDist implements Distributional.
func (m *OrgLinear) PredictDist(ex Example) (mu, sigma []float64) {
	return predictDist(m.params, ex, orgLinearKernel, m.forward)
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
