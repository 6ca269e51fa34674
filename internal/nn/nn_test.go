package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sjtucitlab/gfs/internal/tensor"
)

func TestLinearShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 3, rng)
	tp := tensor.NewTape()
	x := tensor.Randn(5, 4, 1, rng)
	y := l.Forward(tp, x)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("output %dx%d, want 5x3", y.Rows, y.Cols)
	}
	if len(l.Params()) != 2 {
		t.Fatal("linear has W and B")
	}
}

func TestLinearLearnsRegression(t *testing.T) {
	// y = 2x₁ − x₂ + 0.5, learnable by a single linear layer.
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(2, 1, rng)
	opt := NewAdam(l.Params(), 0.05)
	var loss float64
	for epoch := 0; epoch < 300; epoch++ {
		tp := tensor.NewTape()
		x := tensor.Randn(16, 2, 1, rng)
		y := tensor.New(16, 1)
		for i := 0; i < 16; i++ {
			y.Set(i, 0, 2*x.Row(i)[0]-x.Row(i)[1]+0.5)
		}
		out := l.Forward(tp, x)
		lt := MSE(tp, out, y)
		ZeroGrads(l.Params())
		tp.Backward(lt)
		opt.Step()
		loss = lt.Data[0]
	}
	if loss > 1e-3 {
		t.Fatalf("final loss %v, want < 1e-3", loss)
	}
	if math.Abs(l.W.Data[0]-2) > 0.05 || math.Abs(l.W.Data[1]+1) > 0.05 || math.Abs(l.B.Data[0]-0.5) > 0.05 {
		t.Fatalf("learned W=%v B=%v", l.W.Data, l.B.Data)
	}
}

func TestEmbeddingLookupAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEmbedding(10, 4, rng)
	tp := tensor.NewTape()
	out := e.Forward(tp, []int{3, 3, 7})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("out %dx%d", out.Rows, out.Cols)
	}
	for j := 0; j < 4; j++ {
		if out.Row(0)[j] != e.Table.Row(3)[j] || out.Row(1)[j] != e.Table.Row(3)[j] {
			t.Fatal("rows should copy table entries")
		}
	}
	loss := tp.Mean(out)
	ZeroGrads(e.Params())
	tp.Backward(loss)
	// Row 3 used twice → twice row 7's grad (used once); others 0.
	g := e.Table.Grad[7*4]
	if g == 0 || e.Table.Grad[3*4] != 2*g || e.Table.Grad[0] != 0 {
		t.Fatalf("scatter grads wrong: %v", e.Table.Grad)
	}
}

func TestAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMultiHeadAttention(8, 2, rng)
	tp := tensor.NewTape()
	x := tensor.Randn(6, 8, 1, rng)
	y := m.Forward(tp, x, nil)
	if y.Rows != 6 || y.Cols != 8 {
		t.Fatalf("attention out %dx%d", y.Rows, y.Cols)
	}
	if len(m.Params()) != 8 {
		t.Fatalf("param count = %d, want 8", len(m.Params()))
	}
}

func TestAttentionMaskBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMultiHeadAttention(4, 1, rng)
	x := tensor.Randn(3, 4, 1, rng)
	// Mask that forces every query to attend only to position 0.
	mask := tensor.New(3, 3)
	for i := 0; i < 3; i++ {
		for j := 1; j < 3; j++ {
			mask.Set(i, j, -1e9)
		}
	}
	tp := tensor.NewTape()
	y := m.Forward(tp, x, mask)
	// All output rows must be identical (same attended value).
	for j := 0; j < 4; j++ {
		if math.Abs(y.Row(0)[j]-y.Row(1)[j]) > 1e-9 || math.Abs(y.Row(0)[j]-y.Row(2)[j]) > 1e-9 {
			t.Fatal("masked attention rows should coincide")
		}
	}
}

func TestAttentionDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim not divisible by heads should panic")
		}
	}()
	NewMultiHeadAttention(7, 2, rand.New(rand.NewSource(6)))
}

func TestLSTMStepShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cell := NewLSTMCell(3, 5, rng)
	tp := tensor.NewTape()
	x := tensor.Randn(1, 3, 1, rng)
	h, c := cell.Step(tp, x, nil, nil)
	if h.Rows != 1 || h.Cols != 5 || c.Rows != 1 || c.Cols != 5 {
		t.Fatalf("state shapes h=%v c=%v", h, c)
	}
	h2, c2 := cell.Step(tp, x, h, c)
	if h2.Cols != 5 || c2.Cols != 5 {
		t.Fatal("second step shapes")
	}
}

func TestLSTMForgetBiasInitialized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cell := NewLSTMCell(2, 3, rng)
	for j := 3; j < 6; j++ {
		if cell.Gates.B.Data[j] != 1 {
			t.Fatal("forget gate bias should start at 1")
		}
	}
	if cell.Gates.B.Data[0] != 0 {
		t.Fatal("input gate bias should start at 0")
	}
}

func TestLSTMLearnsRunningMean(t *testing.T) {
	// Predict the mean of a short sequence — a task an LSTM readout
	// can learn quickly.
	rng := rand.New(rand.NewSource(9))
	cell := NewLSTMCell(1, 8, rng)
	head := NewLinear(8, 1, rng)
	params := CollectParams(cell, head)
	opt := NewAdam(params, 0.01)
	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		tp := tensor.NewTape()
		seq := make([]float64, 5)
		mean := 0.0
		for i := range seq {
			seq[i] = rng.Float64()
			mean += seq[i]
		}
		mean /= 5
		var h, c *tensor.Tensor
		for _, v := range seq {
			x := tp.Leaf(1, 1, []float64{v})
			h, c = cell.Step(tp, x, h, c)
		}
		pred := head.Forward(tp, h)
		y := tp.Leaf(1, 1, []float64{mean})
		lt := MSE(tp, pred, y)
		ZeroGrads(params)
		tp.Backward(lt)
		opt.Step()
		loss = lt.Data[0]
	}
	if loss > 5e-3 {
		t.Fatalf("LSTM failed to learn mean: loss %v", loss)
	}
}

func TestGaussianNLLMatchesFormula(t *testing.T) {
	tp := tensor.NewTape()
	mu := tp.Leaf(1, 1, []float64{1})
	sigma := tp.Leaf(1, 1, []float64{2})
	y := tp.Leaf(1, 1, []float64{3})
	nll := GaussianNLL(tp, mu, sigma, y)
	want := math.Log(2) + 0.5*math.Pow((3.0-1)/2, 2) + 0.5*math.Log(2*math.Pi)
	if math.Abs(nll.Data[0]-want) > 1e-12 {
		t.Fatalf("nll = %v, want %v", nll.Data[0], want)
	}
}

func TestGaussianNLLMinimizedAtTruth(t *testing.T) {
	// Fit μ,σ to data from N(5, 2²) by direct MLE.
	rng := rand.New(rand.NewSource(10))
	muP := tensor.New(1, 1)
	rawSigma := tensor.New(1, 1)
	params := []*tensor.Tensor{muP, rawSigma}
	opt := NewAdam(params, 0.05)
	n := 256
	data := make([]float64, n)
	for i := range data {
		data[i] = 5 + 2*rng.NormFloat64()
	}
	for epoch := 0; epoch < 2000; epoch++ {
		tp := tensor.NewTape()
		y := tp.Leaf(n, 1, data)
		muRep := tp.MatMul(ones(n, 1), muP)
		sigma := tp.Softplus(tp.MatMul(ones(n, 1), rawSigma))
		loss := GaussianNLL(tp, muRep, sigma, y)
		ZeroGrads(params)
		tp.Backward(loss)
		opt.Step()
	}
	mu := muP.Data[0]
	sigma := math.Log1p(math.Exp(rawSigma.Data[0]))
	if math.Abs(mu-5) > 0.3 {
		t.Fatalf("fitted μ = %v, want ≈5", mu)
	}
	if math.Abs(sigma-2) > 0.3 {
		t.Fatalf("fitted σ = %v, want ≈2", sigma)
	}
}

func ones(r, c int) *tensor.Tensor {
	t := tensor.New(r, c)
	for i := range t.Data {
		t.Data[i] = 1
	}
	return t
}

func TestAdamClipBoundsUpdates(t *testing.T) {
	p := tensor.New(1, 2)
	p.Grad[0] = 1e6
	p.Grad[1] = 1e6
	opt := NewAdam([]*tensor.Tensor{p}, 0.1)
	opt.Clip = 1
	before := opt.GradNorm()
	if before < 1e6 {
		t.Fatal("norm should be huge before clip")
	}
	opt.Step()
	// Adam bounds step size by LR regardless, but clipping should
	// not blow up either.
	for _, v := range p.Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("clipped update too large: %v", v)
		}
	}
}

func TestPositionalEncodingProperties(t *testing.T) {
	pe := PositionalEncoding(16, 8)
	if pe.Rows != 16 || pe.Cols != 8 {
		t.Fatalf("shape %dx%d", pe.Rows, pe.Cols)
	}
	// Row 0 alternates sin(0)=0, cos(0)=1.
	for j := 0; j < 8; j += 2 {
		if pe.Row(0)[j] != 0 || pe.Row(0)[j+1] != 1 {
			t.Fatal("row 0 should be (0,1,0,1,…)")
		}
	}
	// Values bounded in [−1, 1].
	for _, v := range pe.Data {
		if v < -1 || v > 1 {
			t.Fatalf("PE value %v out of range", v)
		}
	}
	// Distinct positions get distinct encodings.
	same := true
	for j := 0; j < 8; j++ {
		if pe.Row(1)[j] != pe.Row(2)[j] {
			same = false
		}
	}
	if same {
		t.Fatal("positions 1 and 2 should differ")
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewLinear(2, 2, rng)
	b := NewEmbedding(3, 2, rng)
	ps := CollectParams(a, b)
	if len(ps) != 3 {
		t.Fatalf("params = %d, want 3", len(ps))
	}
}
