package forecast

import (
	"math"
	"math/rand"
	"sort"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// AttentionVariant selects the attention mechanism of the shared
// encoder, distinguishing the Transformer and Informer baselines.
type AttentionVariant int

const (
	// FullAttention is the vanilla Transformer encoder.
	FullAttention AttentionVariant = iota
	// ProbSparseAttention is Informer's mechanism: only the top-u
	// most "active" queries attend; the rest take the mean of the
	// values.
	ProbSparseAttention
)

// TransformerConfig parameterizes the encoder-based baselines.
type TransformerConfig struct {
	Dim   int
	Heads int
	FFDim int
	TrainConfig
	Variant  AttentionVariant
	Calendar *timefeat.Calendar
}

// DefaultTransformerConfig returns the experiment settings.
func DefaultTransformerConfig() TransformerConfig {
	return TransformerConfig{Dim: 16, Heads: 2, FFDim: 32,
		TrainConfig: TrainConfig{Epochs: 6, LR: 0.005, BatchSize: 8, Seed: 1},
		Calendar:    timefeat.NewCalendar()}
}

// Transformer is an encoder-only attention forecaster: input
// projection + positional encoding, one attention block with residual
// layer norms, mean pooling, and a linear horizon head.
type Transformer struct {
	cfg TransformerConfig

	inProj   *nn.Linear
	attn     *nn.MultiHeadAttention
	ln1Gain  *tensor.Tensor
	ln1Bias  *tensor.Tensor
	ff1, ff2 *nn.Linear
	ln2Gain  *tensor.Tensor
	ln2Bias  *tensor.Tensor
	head     *nn.Linear
	pe       *tensor.Tensor

	params []*tensor.Tensor
}

// NewTransformer creates an untrained encoder forecaster.
func NewTransformer(cfg TransformerConfig) *Transformer {
	if cfg.Calendar == nil {
		cfg.Calendar = timefeat.NewCalendar()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	return &Transformer{cfg: cfg}
}

// Name implements Forecaster.
func (m *Transformer) Name() string {
	if m.cfg.Variant == ProbSparseAttention {
		return "Informer"
	}
	return "Transformer"
}

func (m *Transformer) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	d := m.cfg.Dim
	m.inProj = nn.NewLinear(3, d, rng)
	m.attn = nn.NewMultiHeadAttention(d, m.cfg.Heads, rng)
	m.ln1Gain, m.ln1Bias = onesRow(d), tensor.New(1, d)
	m.ff1 = nn.NewLinear(d, m.cfg.FFDim, rng)
	m.ff2 = nn.NewLinear(m.cfg.FFDim, d, rng)
	m.ln2Gain, m.ln2Bias = onesRow(d), tensor.New(1, d)
	m.head = nn.NewLinear(d, h, rng)
	m.pe = nn.PositionalEncoding(l, d)
	m.params = append(nn.CollectParams(m.inProj, m.attn, m.ff1, m.ff2, m.head),
		m.ln1Gain, m.ln1Bias, m.ln2Gain, m.ln2Bias)
	return m.params
}

func onesRow(n int) *tensor.Tensor {
	t := tensor.New(1, n)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

func (m *Transformer) forward(tp *tensor.Tape, w window) *tensor.Tensor {
	x := tp.Add(m.inProj.Forward(tp, seqInput(tp, m.cfg.Calendar, w)), m.pe)

	var a *tensor.Tensor
	if m.cfg.Variant == ProbSparseAttention {
		a = m.probSparse(tp, x)
	} else {
		a = m.attn.Forward(tp, x, nil)
	}
	x = tp.LayerNorm(tp.Add(x, a), m.ln1Gain, m.ln1Bias, 1e-5)
	f := m.ff2.Forward(tp, tp.ReLU(m.ff1.Forward(tp, x)))
	x = tp.LayerNorm(tp.Add(x, f), m.ln2Gain, m.ln2Bias, 1e-5)
	return m.head.Forward(tp, tp.MeanRows(x))
}

// probSparse implements Informer's ProbSparse self-attention: the
// sparsity measure M(q) = max(scores) − mean(scores) ranks queries;
// only the top u = c·ln L queries attend, the remainder receive the
// mean of V. Selection is data-driven (no gradient), the selected
// paths remain fully differentiable.
func (m *Transformer) probSparse(tp *tensor.Tape, x *tensor.Tensor) *tensor.Tensor {
	d := m.cfg.Dim
	hd := d / m.cfg.Heads
	q := m.attn.WQ.Forward(tp, x)
	k := m.attn.WK.Forward(tp, x)
	v := m.attn.WV.Forward(tp, x)
	seq := x.Rows
	u := int(math.Ceil(2 * math.Log(float64(seq))))
	if u < 1 {
		u = 1
	}
	if u > seq {
		u = seq
	}
	var heads []*tensor.Tensor
	for hIdx := 0; hIdx < m.cfg.Heads; hIdx++ {
		from, to := hIdx*hd, (hIdx+1)*hd
		qh := tp.SliceCols(q, from, to)
		kh := tp.SliceCols(k, from, to)
		vh := tp.SliceCols(v, from, to)
		scores := tp.Scale(tp.MatMulT(qh, kh), 1/math.Sqrt(float64(hd)))

		sel := topQueries(scores, u)
		selSet := make(map[int]int, len(sel)) // row → position in sel
		for i, r := range sel {
			selSet[r] = i
		}
		active := tp.MatMul(tp.SoftmaxRows(tp.Gather(scores, sel)), vh)
		passive := tp.MeanRows(vh)

		// Reassemble rows in original order: active rows come from
		// `active`, others from the replicated mean.
		rep := tp.MatMul(constOnes(tp, seq-u, 1), passive)
		stacked := tp.ConcatRows(active, rep)
		perm := make([]int, seq)
		next := u // passive rows start after the u active rows
		for r := 0; r < seq; r++ {
			if i, ok := selSet[r]; ok {
				perm[r] = i
			} else {
				perm[r] = next
				next++
			}
		}
		heads = append(heads, tp.Gather(stacked, perm))
	}
	return m.attn.WO.Forward(tp, tp.ConcatCols(heads...))
}

// topQueries ranks rows of scores by max−mean and returns the top-u
// row indices in ascending order.
func topQueries(scores *tensor.Tensor, u int) []int {
	type qm struct {
		row int
		m   float64
	}
	ms := make([]qm, scores.Rows)
	for i := 0; i < scores.Rows; i++ {
		row := scores.Data[i*scores.Cols : (i+1)*scores.Cols]
		maxV := math.Inf(-1)
		sum := 0.0
		for _, s := range row {
			if s > maxV {
				maxV = s
			}
			sum += s
		}
		ms[i] = qm{row: i, m: maxV - sum/float64(len(row))}
	}
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].m != ms[b].m {
			return ms[a].m > ms[b].m
		}
		return ms[a].row < ms[b].row
	})
	sel := make([]int, u)
	for i := 0; i < u; i++ {
		sel[i] = ms[i].row
	}
	sort.Ints(sel)
	return sel
}

func constOnes(tp *tensor.Tape, r, c int) *tensor.Tensor {
	t := tp.Leaf(r, c, nil)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

// Fit implements Forecaster.
func (m *Transformer) Fit(train []Example) error {
	return fit(m.cfg.TrainConfig, train, 0, m.build, mse(m.forward))
}

// Predict implements Forecaster.
func (m *Transformer) Predict(ex Example) []float64 {
	return predict(m.params, ex, 0, m.forward)
}
