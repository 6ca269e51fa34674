// Package nn builds neural-network layers on the tensor autodiff
// engine: linear and embedding layers, multi-head attention, an LSTM
// cell, the Adam optimizer, and the Gaussian negative log-likelihood
// used by the paper's distributional training objective (Eq. 8).
package nn

import (
	"math"
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/tensor"
)

// Layer is anything exposing trainable parameters.
type Layer interface {
	Params() []*tensor.Tensor
}

// CollectParams flattens the parameters of several layers.
func CollectParams(layers ...Layer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears gradients of all parameters.
func ZeroGrads(params []*tensor.Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *tensor.Tensor // in×out
	B *tensor.Tensor // 1×out
}

// NewLinear creates a Xavier-initialized linear layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	return &Linear{W: tensor.Xavier(in, out, rng), B: tensor.New(1, out)}
}

// Forward applies the layer to x (rows are examples or timesteps).
func (l *Linear) Forward(tp *tensor.Tape, x *tensor.Tensor) *tensor.Tensor {
	return tp.AddRow(tp.MatMul(x, l.W), l.B)
}

// Params implements Layer.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Embedding maps integer indices to dense rows.
type Embedding struct {
	Table *tensor.Tensor // vocab×dim
}

// NewEmbedding creates an embedding table with N(0, 0.1) rows.
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Table: tensor.Randn(vocab, dim, 0.1, rng)}
}

// Forward looks up the rows of idx.
func (e *Embedding) Forward(tp *tensor.Tape, idx []int) *tensor.Tensor {
	return tp.Gather(e.Table, idx)
}

// Params implements Layer.
func (e *Embedding) Params() []*tensor.Tensor { return []*tensor.Tensor{e.Table} }

// MultiHeadAttention is standard scaled-dot-product self-attention
// over a sequence laid out as rows.
type MultiHeadAttention struct {
	Heads   int
	Dim     int // model dim, divisible by Heads
	WQ, WK  *Linear
	WV, WO  *Linear
	HeadDim int
}

// NewMultiHeadAttention creates attention with the given model
// dimension and head count.
func NewMultiHeadAttention(dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("nn: attention dim must divide heads")
	}
	return &MultiHeadAttention{
		Heads: heads, Dim: dim, HeadDim: dim / heads,
		WQ: NewLinear(dim, dim, rng),
		WK: NewLinear(dim, dim, rng),
		WV: NewLinear(dim, dim, rng),
		WO: NewLinear(dim, dim, rng),
	}
}

// Forward computes self-attention of x (seq×dim). When mask is
// non-nil it is added to the pre-softmax scores (seq×seq), enabling
// causal or sparse attention patterns.
func (m *MultiHeadAttention) Forward(tp *tensor.Tape, x *tensor.Tensor, mask *tensor.Tensor) *tensor.Tensor {
	q := m.WQ.Forward(tp, x)
	k := m.WK.Forward(tp, x)
	v := m.WV.Forward(tp, x)
	// ConcatCols copies its operand list, so the heads stay on the
	// stack for the usual head counts.
	var buf [4]*tensor.Tensor
	heads := buf[:0]
	for h := 0; h < m.Heads; h++ {
		from, to := h*m.HeadDim, (h+1)*m.HeadDim
		qh := tp.SliceCols(q, from, to)
		kh := tp.SliceCols(k, from, to)
		vh := tp.SliceCols(v, from, to)
		scores := tp.Scale(tp.MatMulT(qh, kh), 1/math.Sqrt(float64(m.HeadDim)))
		if mask != nil {
			scores = tp.Add(scores, mask)
		}
		attn := tp.SoftmaxRows(scores)
		heads = append(heads, tp.MatMul(attn, vh))
	}
	return m.WO.Forward(tp, tp.ConcatCols(heads...))
}

// Params implements Layer.
func (m *MultiHeadAttention) Params() []*tensor.Tensor {
	return CollectParams(m.WQ, m.WK, m.WV, m.WO)
}

// LSTMCell is a single-layer LSTM step.
type LSTMCell struct {
	// Gates packs input/forget/cell/output transforms: x and h are
	// concatenated and mapped to 4×hidden.
	Gates  *Linear
	Hidden int
}

// NewLSTMCell creates a cell with the given input and hidden sizes.
func NewLSTMCell(input, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{Gates: NewLinear(input+hidden, 4*hidden, rng), Hidden: hidden}
	// Standard trick: bias the forget gate open.
	for j := hidden; j < 2*hidden; j++ {
		c.Gates.B.Data[j] = 1
	}
	return c
}

// Step advances one timestep. x is 1×input; h and c are 1×hidden
// (nil means zero state). It returns the next h and c.
func (l *LSTMCell) Step(tp *tensor.Tape, x, h, c *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	if h == nil {
		h = tp.Leaf(1, l.Hidden, nil)
	}
	if c == nil {
		c = tp.Leaf(1, l.Hidden, nil)
	}
	z := l.Gates.Forward(tp, tp.ConcatCols(x, h))
	i := tp.Sigmoid(tp.SliceCols(z, 0, l.Hidden))
	f := tp.Sigmoid(tp.SliceCols(z, l.Hidden, 2*l.Hidden))
	g := tp.Tanh(tp.SliceCols(z, 2*l.Hidden, 3*l.Hidden))
	o := tp.Sigmoid(tp.SliceCols(z, 3*l.Hidden, 4*l.Hidden))
	cNext := tp.Add(tp.Mul(f, c), tp.Mul(i, g))
	hNext := tp.Mul(o, tp.Tanh(cNext))
	return hNext, cNext
}

// Params implements Layer.
func (l *LSTMCell) Params() []*tensor.Tensor { return l.Gates.Params() }

// GaussianNLL computes the paper's distributional objective: the
// mean over elements of −log φ((y−μ)/σ) = log σ + (y−μ)²/(2σ²) + ½log 2π.
// sigma must be strictly positive (use Softplus upstream, Eq. 7).
func GaussianNLL(tp *tensor.Tape, mu, sigma, y *tensor.Tensor) *tensor.Tensor {
	diff := tp.Sub(y, mu)
	z := tp.Div(diff, sigma)
	quad := tp.Scale(tp.Square(z), 0.5)
	logs := tp.Log(sigma)
	perElem := tp.Add(quad, logs)
	return tp.AddScalar(tp.Mean(perElem), 0.5*math.Log(2*math.Pi))
}

// MSE computes mean squared error between prediction and target.
func MSE(tp *tensor.Tape, pred, y *tensor.Tensor) *tensor.Tensor {
	return tp.Mean(tp.Square(tp.Sub(pred, y)))
}

// PositionalEncoding returns the fixed sinusoidal position table
// (seq×dim) used by the attention baselines.
func PositionalEncoding(seq, dim int) *tensor.Tensor {
	pe := tensor.New(seq, dim)
	for pos := 0; pos < seq; pos++ {
		for i := 0; i < dim; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(dim))
			if i%2 == 0 {
				pe.Set(pos, i, math.Sin(angle))
			} else {
				pe.Set(pos, i, math.Cos(angle))
			}
		}
	}
	return pe
}
