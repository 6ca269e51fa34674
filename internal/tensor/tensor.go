// Package tensor implements dense 2-D matrices with reverse-mode
// automatic differentiation on a tape. It is the numeric substrate
// for the forecasting models (OrgLinear and the deep baselines of
// Fig. 10), replacing the paper's PyTorch stack with stdlib-only Go.
//
// A Tape records every operation; Backward replays the tape in
// reverse, accumulating gradients into each Tensor's Grad buffer.
// Shape errors panic: they are programming errors, not runtime
// conditions.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a rows×cols matrix. Grad, when non-nil, accumulates
// ∂loss/∂Data during Backward.
type Tensor struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64
	back       func()
}

// New allocates a zero matrix with a gradient buffer.
func New(rows, cols int) *Tensor {
	return &Tensor{
		Rows: rows, Cols: cols,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data, Grad: make([]float64, len(data))}
}

// Randn fills a new tensor with N(0, scale²) entries.
func Randn(rows, cols int, scale float64, rng *rand.Rand) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

// Xavier initializes with the Glorot uniform bound for a fan-in/out
// pair.
func Xavier(rows, cols int, rng *rand.Rand) *Tensor {
	bound := math.Sqrt(6.0 / float64(rows+cols))
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * bound
	}
	return t
}

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Row returns a copy of row i.
func (t *Tensor) Row(i int) []float64 {
	out := make([]float64, t.Cols)
	copy(out, t.Data[i*t.Cols:(i+1)*t.Cols])
	return out
}

// String implements fmt.Stringer.
func (t *Tensor) String() string {
	return fmt.Sprintf("tensor(%dx%d)", t.Rows, t.Cols)
}

// Tape records operations for reverse-mode differentiation.
type Tape struct {
	nodes []*Tensor
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset discards all recorded operations so the tape can be reused
// for the next forward pass.
func (tp *Tape) Reset() { tp.nodes = tp.nodes[:0] }

func (tp *Tape) record(out *Tensor, back func()) *Tensor {
	out.back = back
	tp.nodes = append(tp.nodes, out)
	return out
}

// Backward seeds ∂loss/∂loss = 1 and propagates gradients through
// every recorded operation in reverse order. loss must be 1×1.
func (tp *Tape) Backward(loss *Tensor) {
	if loss.Rows != 1 || loss.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward needs scalar loss, got %dx%d", loss.Rows, loss.Cols))
	}
	loss.Grad[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		if tp.nodes[i].back != nil {
			tp.nodes[i].back()
		}
	}
}

func assertSameShape(op string, a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a + b (elementwise).
func (tp *Tape) Add(a, b *Tensor) *Tensor {
	assertSameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i]
			b.Grad[i] += out.Grad[i]
		}
	})
}

// Sub returns a − b (elementwise).
func (tp *Tape) Sub(a, b *Tensor) *Tensor {
	assertSameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i]
			b.Grad[i] -= out.Grad[i]
		}
	})
}

// Mul returns a ⊙ b (elementwise product).
func (tp *Tape) Mul(a, b *Tensor) *Tensor {
	assertSameShape("Mul", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] * b.Data[i]
			b.Grad[i] += out.Grad[i] * a.Data[i]
		}
	})
}

// Div returns a ⊘ b (elementwise quotient).
func (tp *Tape) Div(a, b *Tensor) *Tensor {
	assertSameShape("Div", a, b)
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] / b.Data[i]
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] / b.Data[i]
			b.Grad[i] -= out.Grad[i] * a.Data[i] / (b.Data[i] * b.Data[i])
		}
	})
}

// Scale returns s·a.
func (tp *Tape) Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] * s
		}
	})
}

// AddScalar returns a + s (elementwise).
func (tp *Tape) AddScalar(a *Tensor, s float64) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + s
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i]
		}
	})
}

// AddRow broadcasts a 1×cols row vector over every row of a.
func (tp *Tape) AddRow(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRow wants 1x%d, got %dx%d", a.Cols, row.Rows, row.Cols))
	}
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + row.Data[j]
		}
	}
	return tp.record(out, func() {
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				g := out.Grad[i*a.Cols+j]
				a.Grad[i*a.Cols+j] += g
				row.Grad[j] += g
			}
		}
	})
}

// MatMul returns a·b.
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matmul(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return tp.record(out, func() {
		// dA = dOut · Bᵀ ; dB = Aᵀ · dOut
		for i := 0; i < a.Rows; i++ {
			for k := 0; k < a.Cols; k++ {
				s := 0.0
				for j := 0; j < b.Cols; j++ {
					s += out.Grad[i*b.Cols+j] * b.Data[k*b.Cols+j]
				}
				a.Grad[i*a.Cols+k] += s
			}
		}
		for k := 0; k < b.Rows; k++ {
			for j := 0; j < b.Cols; j++ {
				s := 0.0
				for i := 0; i < a.Rows; i++ {
					s += a.Data[i*a.Cols+k] * out.Grad[i*b.Cols+j]
				}
				b.Grad[k*b.Cols+j] += s
			}
		}
	})
}

// MatMulT returns a·bᵀ without materializing the transpose, the form
// attention scores take (Q·Kᵀ).
func (tp *Tape) MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
			out.Data[i*b.Rows+j] = s
		}
	}
	return tp.record(out, func() {
		// dA = dOut · B ; dB = dOutᵀ · A
		for i := 0; i < a.Rows; i++ {
			for k := 0; k < a.Cols; k++ {
				s := 0.0
				for j := 0; j < b.Rows; j++ {
					s += out.Grad[i*b.Rows+j] * b.Data[j*b.Cols+k]
				}
				a.Grad[i*a.Cols+k] += s
			}
		}
		for j := 0; j < b.Rows; j++ {
			for k := 0; k < b.Cols; k++ {
				s := 0.0
				for i := 0; i < a.Rows; i++ {
					s += out.Grad[i*b.Rows+j] * a.Data[i*a.Cols+k]
				}
				b.Grad[j*b.Cols+k] += s
			}
		}
	})
}

// TMatMul returns aᵀ·b without materializing the transpose.
func (tp *Tape) TMatMul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	for p := 0; p < a.Rows; p++ {
		for i := 0; i < a.Cols; i++ {
			av := a.Data[p*a.Cols+i]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.Data[p*b.Cols+j]
			}
		}
	}
	return tp.record(out, func() {
		// dA[p][i] = Σ_j dOut[i][j]·B[p][j]; dB[p][j] = Σ_i A[p][i]·dOut[i][j]
		for p := 0; p < a.Rows; p++ {
			for i := 0; i < a.Cols; i++ {
				s := 0.0
				for j := 0; j < b.Cols; j++ {
					s += out.Grad[i*b.Cols+j] * b.Data[p*b.Cols+j]
				}
				a.Grad[p*a.Cols+i] += s
			}
			for j := 0; j < b.Cols; j++ {
				s := 0.0
				for i := 0; i < a.Cols; i++ {
					s += a.Data[p*a.Cols+i] * out.Grad[i*b.Cols+j]
				}
				b.Grad[p*b.Cols+j] += s
			}
		}
	})
}

func matmul(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst[i*n+j] += av * b[p*n+j]
			}
		}
	}
}
