package forecast

import (
	"math"
	"math/rand"
	"sort"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// attentionVariant selects the attention mechanism of the shared
// encoder, distinguishing the Transformer and Informer baselines.
type attentionVariant int

const (
	// fullAttention is the vanilla Transformer encoder.
	fullAttention attentionVariant = iota
	// probSparseAttention is Informer's mechanism: only the top-u
	// most "active" queries attend; the rest take the mean of the
	// values.
	probSparseAttention
)

// The encoder's fixed widths and schedule, shared by both variants.
const (
	transformerDim       = 16
	transformerHeads     = 2
	transformerFFDim     = 32 // feed-forward hidden width
	transformerLR        = 0.005
	transformerBatchSize = 8
)

// Transformer is an encoder-only attention forecaster: input
// projection + positional encoding, one attention block with residual
// layer norms, mean pooling, and a linear horizon head.
type Transformer struct {
	epochs  int
	variant attentionVariant

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

// NewTransformer creates an untrained encoder forecaster that trains
// for the given number of epochs.
func NewTransformer(epochs int) *Transformer {
	return &Transformer{epochs: epochs, variant: fullAttention}
}

// NewInformer creates an untrained Informer: the encoder forecaster
// with ProbSparse self-attention, trained for the given number of
// epochs.
func NewInformer(epochs int) *Transformer {
	return &Transformer{epochs: epochs, variant: probSparseAttention}
}

// Name implements Forecaster.
func (m *Transformer) Name() string {
	if m.variant == probSparseAttention {
		return "Informer"
	}
	return "Transformer"
}

func (m *Transformer) build(l, h int, rng *rand.Rand) []*tensor.Tensor {
	d := transformerDim
	m.inProj = nn.NewLinear(3, d, rng)
	m.attn = nn.NewMultiHeadAttention(d, transformerHeads, rng)
	m.ln1Gain, m.ln1Bias = onesRow(d), tensor.New(1, d)
	m.ff1 = nn.NewLinear(d, transformerFFDim, rng)
	m.ff2 = nn.NewLinear(transformerFFDim, d, rng)
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
	x := tp.Add(m.inProj.Forward(tp, seqInput(tp, w)), m.pe)

	var a *tensor.Tensor
	if m.variant == probSparseAttention {
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
	hd := transformerDim / transformerHeads
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
	for hIdx := 0; hIdx < transformerHeads; hIdx++ {
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
	tc := trainConfig{epochs: m.epochs, lr: transformerLR, batchSize: transformerBatchSize}
	return fit(tc, train, 0, m.build, mse(m.forward))
}

// Predict implements Forecaster.
func (m *Transformer) Predict(ex Example) []float64 {
	return predict(m.params, ex, 0, m.forward)
}
