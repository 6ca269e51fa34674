package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad estimates ∂f/∂x[i] by central differences, where f
// rebuilds the graph from scratch each call.
func numericGrad(x *Tensor, i int, f func() float64) float64 {
	const h = 1e-5
	old := x.Data[i]
	x.Data[i] = old + h
	fp := f()
	x.Data[i] = old - h
	fm := f()
	x.Data[i] = old
	return (fp - fm) / (2 * h)
}

// checkGrads verifies analytic vs numeric gradients for every input.
func checkGrads(t *testing.T, name string, inputs []*Tensor, forward func(tp *Tape) *Tensor) {
	t.Helper()
	tp := NewTape()
	loss := forward(tp)
	tp.Backward(loss)
	f := func() float64 {
		tp2 := NewTape()
		return forward(tp2).Data[0]
	}
	for xi, x := range inputs {
		for i := range x.Data {
			want := numericGrad(x, i, f)
			got := x.Grad[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("%s: input %d elem %d: grad %v, numeric %v", name, xi, i, got, want)
			}
		}
	}
}

// fromSlice wraps data (not copied) as an r×c tensor with a gradient
// buffer.
func fromSlice(r, c int, data []float64) *Tensor {
	return &Tensor{Rows: r, Cols: c, Data: data, Grad: make([]float64, len(data))}
}

func randT(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func randPos(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = 0.5 + rng.Float64()
	}
	return t
}

func TestGradAddSubMulDiv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randT(rng, 3, 4), randPos(rng, 3, 4)
	checkGrads(t, "Add", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Add(a, b))
	})
	a.ZeroGrad()
	b.ZeroGrad()
	checkGrads(t, "Sub", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.Sub(a, b)))
	})
	a.ZeroGrad()
	b.ZeroGrad()
	checkGrads(t, "Mul", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Mul(a, b))
	})
	a.ZeroGrad()
	b.ZeroGrad()
	checkGrads(t, "Div", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Div(a, b))
	})
}

func TestGradScaleAddScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randT(rng, 2, 5)
	checkGrads(t, "Scale", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Scale(a, 2.5))
	})
	a.ZeroGrad()
	checkGrads(t, "AddScalar", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.AddScalar(a, 1.5)))
	})
}

func TestGradAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, row := randT(rng, 4, 3), randT(rng, 1, 3)
	checkGrads(t, "AddRow", []*Tensor{a, row}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.AddRow(a, row)))
	})
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randT(rng, 3, 4), randT(rng, 4, 2)
	checkGrads(t, "MatMul", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.MatMul(a, b)))
	})
}

func TestGradMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randT(rng, 3, 4), randT(rng, 5, 4)
	checkGrads(t, "MatMulT", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.MatMulT(a, b)))
	})
}

func TestGradTMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a, b := randT(rng, 4, 3), randT(rng, 4, 2)
	checkGrads(t, "TMatMul", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.TMatMul(a, b)))
	})
}

func TestTMatMulMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a, b := randT(rng, 4, 3), randT(rng, 4, 2)
	tp := NewTape()
	got := tp.TMatMul(a, b)
	if got.Rows != 3 || got.Cols != 2 {
		t.Fatalf("shape %dx%d, want 3x2", got.Rows, got.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			for p := 0; p < 4; p++ {
				want += a.Data[p*a.Cols+i] * b.Data[p*b.Cols+j]
			}
			if math.Abs(got.Data[i*got.Cols+j]-want) > 1e-12 {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got.Data[i*got.Cols+j], want)
			}
		}
	}
}

func TestMatMulTMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randT(rng, 3, 4), randT(rng, 5, 4)
	tp := NewTape()
	got := tp.MatMulT(a, b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			for k := 0; k < 4; k++ {
				want += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
			if math.Abs(got.Data[i*got.Cols+j]-want) > 1e-12 {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got.Data[i*got.Cols+j], want)
			}
		}
	}
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		op   func(tp *Tape, a *Tensor) *Tensor
	}{
		{"Sigmoid", func(tp *Tape, a *Tensor) *Tensor { return tp.Sigmoid(a) }},
		{"Tanh", func(tp *Tape, a *Tensor) *Tensor { return tp.Tanh(a) }},
		{"Softplus", func(tp *Tape, a *Tensor) *Tensor { return tp.Softplus(a) }},
	} {
		a := randT(rng, 2, 4)
		checkGrads(t, tc.name, []*Tensor{a}, func(tp *Tape) *Tensor {
			return tp.Mean(tc.op(tp, a))
		})
	}
}

func TestGradReLU(t *testing.T) {
	// Avoid kink at 0 by keeping inputs away from it.
	a := fromSlice(1, 4, []float64{-2, -0.5, 0.5, 2})
	checkGrads(t, "ReLU", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.ReLU(a)))
	})
}

func TestGradLog(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randPos(rng, 2, 3)
	checkGrads(t, "Log", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Log(a))
	})
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randT(rng, 3, 5)
	w := randT(rng, 3, 5) // project to scalar to exercise full Jacobian
	checkGrads(t, "SoftmaxRows", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Mul(tp.SoftmaxRows(a), w))
	})
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randT(rng, 4, 6)
	tp := NewTape()
	s := tp.SoftmaxRows(a)
	for i := 0; i < s.Rows; i++ {
		sum := 0.0
		for j := 0; j < s.Cols; j++ {
			sum += s.Data[i*s.Cols+j]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestGradReductionsAndSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randT(rng, 4, 6)
	checkGrads(t, "Mean", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(a))
	})
	a.ZeroGrad()
	checkGrads(t, "MeanRows", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.MeanRows(a)))
	})
	a.ZeroGrad()
	checkGrads(t, "SliceCols", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.SliceCols(a, 1, 4)))
	})
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randT(rng, 3, 2), randT(rng, 3, 4)
	checkGrads(t, "ConcatCols", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.ConcatCols(a, b)))
	})
	c, d := randT(rng, 2, 3), randT(rng, 4, 3)
	checkGrads(t, "ConcatRows", []*Tensor{c, d}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.ConcatRows(c, d)))
	})
}

func TestGradGather(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	table := randT(rng, 5, 3)
	idx := []int{0, 2, 2, 4}
	checkGrads(t, "Gather", []*Tensor{table}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.Gather(table, idx)))
	})
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randT(rng, 3, 6)
	gain := randPos(rng, 1, 6)
	bias := randT(rng, 1, 6)
	checkGrads(t, "LayerNorm", []*Tensor{a, gain, bias}, func(tp *Tape) *Tensor {
		return tp.Mean(tp.Square(tp.LayerNorm(a, gain, bias, 1e-5)))
	})
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randT(rng, 4, 8)
	gain := New(1, 8)
	bias := New(1, 8)
	for j := range gain.Data {
		gain.Data[j] = 1
	}
	tp := NewTape()
	out := tp.LayerNorm(a, gain, bias, 1e-8)
	for i := 0; i < out.Rows; i++ {
		m, v := 0.0, 0.0
		for j := 0; j < out.Cols; j++ {
			m += out.Data[i*out.Cols+j]
		}
		m /= float64(out.Cols)
		for j := 0; j < out.Cols; j++ {
			d := out.Data[i*out.Cols+j] - m
			v += d * d
		}
		v /= float64(out.Cols)
		if math.Abs(m) > 1e-9 || math.Abs(v-1) > 1e-6 {
			t.Fatalf("row %d: mean %v var %v", i, m, v)
		}
	}
}

func TestShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	tp := NewTape()
	a := New(2, 3)
	b := New(3, 2)
	expectPanic("Add", func() { tp.Add(a, b) })
	expectPanic("MatMul", func() { tp.MatMul(a, New(2, 2)) })
	expectPanic("MatMulT", func() { tp.MatMulT(a, New(2, 4)) })
	expectPanic("AddRow", func() { tp.AddRow(a, New(1, 4)) })
	expectPanic("Backward", func() { tp.Backward(a) })
	expectPanic("Leaf", func() { tp.Leaf(2, 2, []float64{1}) })
	expectPanic("SliceCols", func() { tp.SliceCols(a, 2, 2) })
	expectPanic("Gather", func() { tp.Gather(a, []int{7}) })
	expectPanic("ConcatCols", func() { tp.ConcatCols() })
	expectPanic("ConcatRows", func() { tp.ConcatRows(a, New(2, 4)) })
	expectPanic("LayerNorm", func() { tp.LayerNorm(a, New(1, 4), New(1, 3), 1e-5) })
}

// TestResetDropsOperands checks that an idle tape references no tensor
// it did not create, so a pooled tape keeps no model alive.
func TestResetDropsOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := randT(rng, 2, 3), randT(rng, 2, 3)
	tp := NewTape()
	tp.LayerNorm(tp.ConcatRows(tp.Add(a, b), a), randT(rng, 1, 3), randT(rng, 1, 3), 1e-5)
	n := len(tp.nodes)
	tp.Reset()
	for i, nd := range tp.nodes[:n] {
		if nd.a != nil || nd.b != nil || nd.c != nil {
			t.Fatalf("slot %d keeps an operand after Reset", i)
		}
		for _, op := range nd.ts {
			if op != nil {
				t.Fatalf("slot %d keeps an operand list entry after Reset", i)
			}
		}
	}
}

func TestTapeResetAndReuse(t *testing.T) {
	a := fromSlice(1, 1, []float64{3})
	tp := NewTape()
	l1 := tp.Square(a)
	tp.Backward(l1)
	if a.Grad[0] != 6 {
		t.Fatalf("grad = %v, want 6", a.Grad[0])
	}
	if len(tp.nodes) != 1 {
		t.Fatalf("tape len = %d, want 1", len(tp.nodes))
	}
	tp.Reset()
	if len(tp.nodes) != 0 {
		t.Fatal("tape should be empty after Reset")
	}
	a.ZeroGrad()
	l2 := tp.Scale(a, 4)
	// The first op after Reset reuses the first slot's tensor, cleared.
	if l2 != l1 || l2.Data[0] != 12 || l2.Grad[0] != 0 {
		t.Fatalf("reused slot: same tensor %v, Data %v, Grad %v; want true, [12], [0]", l2 == l1, l2.Data, l2.Grad)
	}
	tp.Backward(l2)
	if a.Grad[0] != 4 {
		t.Fatalf("grad after reuse = %v, want 4", a.Grad[0])
	}
}

func TestGradAccumulatesOverUses(t *testing.T) {
	// x used twice: d(x²+3x)/dx = 2x+3.
	x := fromSlice(1, 1, []float64{2})
	tp := NewTape()
	loss := tp.Add(tp.Square(x), tp.Scale(x, 3))
	tp.Backward(loss)
	if x.Grad[0] != 7 {
		t.Fatalf("grad = %v, want 7", x.Grad[0])
	}
}

func TestHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := Xavier(10, 10, rng)
	bound := math.Sqrt(6.0 / 20.0)
	for _, v := range x.Data {
		if v < -bound || v > bound {
			t.Fatalf("xavier value %v outside ±%v", v, bound)
		}
	}
	r := Randn(50, 50, 0.1, rng)
	if math.Abs(meanOf(r.Data)) > 0.02 {
		t.Fatalf("randn mean = %v", meanOf(r.Data))
	}
	row := fromSlice(2, 2, []float64{1, 2, 3, 4}).Row(1)
	if row[0] != 3 || row[1] != 4 {
		t.Fatal("Row extraction wrong")
	}
	if fromSlice(1, 1, []float64{5}).String() != "tensor(1x1)" {
		t.Fatal("String format")
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
