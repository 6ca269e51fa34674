// Package tensor implements dense 2-D matrices with reverse-mode
// automatic differentiation on a tape. It is the numeric substrate
// for the forecasting models (OrgLinear and the deep baselines of
// Fig. 10), replacing the paper's PyTorch stack with stdlib-only Go.
//
// A Tape records every operation; Backward replays the tape in
// reverse, accumulating gradients into each Tensor's Grad buffer.
// Shape errors panic: they are programming errors, not runtime
// conditions.
//
// The tape owns the tensors its operations (and Leaf) return and
// keeps their storage across Reset: the k-th operation recorded after
// a Reset reuses the k-th slot's Tensor, Data and Grad, cleared, so a
// training loop that replays the same graph allocates nothing once
// every slot has held its largest shape. The lifetime rule follows: a
// tensor returned by a tape op is valid until that tape's next Reset.
// Copy out (Row) whatever must outlive it.
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
}

// New allocates a zero matrix with a gradient buffer.
func New(rows, cols int) *Tensor {
	return &Tensor{
		Rows: rows, Cols: cols,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
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
func (t *Tensor) ZeroGrad() { clear(t.Grad) }

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

// node is one recorded operation: its result, the static backward
// that propagates the result's gradient to the operands, and what that
// backward reads. A Tape keeps its nodes across Reset, so recording an
// op reallocates none of this once the slot has held the shape.
type node struct {
	out     Tensor
	back    func(*node) // nil for a leaf
	a, b, c *Tensor     // operands (LayerNorm: input, gain, bias)
	ts      []*Tensor   // ConcatCols/ConcatRows operands
	idx     []int       // Gather indices
	s       float64     // Scale factor
	from    int         // SliceCols offset
	aux     []float64   // LayerNorm's x̂ and 1/σ
}

// Tape records operations for reverse-mode differentiation. nodes[:len]
// are the operations recorded since the last Reset; the slots past len,
// up to cap, are kept for the next forward pass to reuse.
type Tape struct {
	nodes []*node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset discards all recorded operations so the tape can be reused
// for the next forward pass. Every tensor the tape returned before is
// invalid from here on: its slot will be overwritten. The slots keep
// their buffers but drop their operands, so an idle tape holds no
// tensor it did not create.
func (tp *Tape) Reset() {
	for _, nd := range tp.nodes {
		nd.a, nd.b, nd.c = nil, nil, nil
		clear(nd.ts)
	}
	tp.nodes = tp.nodes[:0]
}

// push records an op whose result is rows×cols, computed by the caller
// into the returned node's out (Data and Grad both cleared), with a and
// b as the operands back reads.
func (tp *Tape) push(rows, cols int, back func(*node), a, b *Tensor) *node {
	n := len(tp.nodes)
	if n < cap(tp.nodes) {
		tp.nodes = tp.nodes[:n+1]
	} else {
		tp.nodes = append(tp.nodes, nil)
	}
	nd := tp.nodes[n]
	if nd == nil {
		nd = new(node)
		tp.nodes[n] = nd
	}
	nd.back, nd.a, nd.b = back, a, b
	nd.out.Rows, nd.out.Cols = rows, cols
	nd.out.Data = zeroed(nd.out.Data, rows*cols)
	nd.out.Grad = zeroed(nd.out.Grad, rows*cols)
	return nd
}

// zeroed returns buf resized to n zeros, reallocating only when n
// exceeds its capacity.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Leaf records a rows×cols input the tape owns, holding a copy of data
// (zeros when data is nil): a per-forward constant such as a scaled
// window or a loss target. Backward accumulates into its Grad and
// propagates nothing further.
func (tp *Tape) Leaf(rows, cols int, data []float64) *Tensor {
	if data != nil && len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: Leaf %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	nd := tp.push(rows, cols, nil, nil, nil)
	copy(nd.out.Data, data)
	return &nd.out
}

// Backward seeds ∂loss/∂loss = 1 and propagates gradients through
// every recorded operation in reverse order. loss must be 1×1.
func (tp *Tape) Backward(loss *Tensor) {
	if loss.Rows != 1 || loss.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward needs scalar loss, got %dx%d", loss.Rows, loss.Cols))
	}
	loss.Grad[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		if nd := tp.nodes[i]; nd.back != nil {
			nd.back(nd)
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
	nd := tp.push(a.Rows, a.Cols, addBack, a, b)
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] + b.Data[i]
	}
	return &nd.out
}

func addBack(nd *node) {
	for i, g := range nd.out.Grad {
		nd.a.Grad[i] += g
		nd.b.Grad[i] += g
	}
}

// Sub returns a − b (elementwise).
func (tp *Tape) Sub(a, b *Tensor) *Tensor {
	assertSameShape("Sub", a, b)
	nd := tp.push(a.Rows, a.Cols, subBack, a, b)
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] - b.Data[i]
	}
	return &nd.out
}

func subBack(nd *node) {
	for i, g := range nd.out.Grad {
		nd.a.Grad[i] += g
		nd.b.Grad[i] -= g
	}
}

// Mul returns a ⊙ b (elementwise product).
func (tp *Tape) Mul(a, b *Tensor) *Tensor {
	assertSameShape("Mul", a, b)
	nd := tp.push(a.Rows, a.Cols, mulBack, a, b)
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] * b.Data[i]
	}
	return &nd.out
}

func mulBack(nd *node) {
	a, b := nd.a, nd.b
	for i, g := range nd.out.Grad {
		a.Grad[i] += g * b.Data[i]
		b.Grad[i] += g * a.Data[i]
	}
}

// Div returns a ⊘ b (elementwise quotient).
func (tp *Tape) Div(a, b *Tensor) *Tensor {
	assertSameShape("Div", a, b)
	nd := tp.push(a.Rows, a.Cols, divBack, a, b)
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] / b.Data[i]
	}
	return &nd.out
}

func divBack(nd *node) {
	a, b := nd.a, nd.b
	for i, g := range nd.out.Grad {
		a.Grad[i] += g / b.Data[i]
		b.Grad[i] -= g * a.Data[i] / (b.Data[i] * b.Data[i])
	}
}

// Scale returns s·a.
func (tp *Tape) Scale(a *Tensor, s float64) *Tensor {
	nd := tp.push(a.Rows, a.Cols, scaleBack, a, nil)
	nd.s = s
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] * s
	}
	return &nd.out
}

func scaleBack(nd *node) {
	for i, g := range nd.out.Grad {
		nd.a.Grad[i] += g * nd.s
	}
}

// AddScalar returns a + s (elementwise).
func (tp *Tape) AddScalar(a *Tensor, s float64) *Tensor {
	nd := tp.push(a.Rows, a.Cols, passBack, a, nil)
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] + s
	}
	return &nd.out
}

// passBack adds the result's gradient to a's unchanged, the backward
// of every op whose result moves one-for-one with its operand.
func passBack(nd *node) {
	for i, g := range nd.out.Grad {
		nd.a.Grad[i] += g
	}
}

// AddRow broadcasts a 1×cols row vector over every row of a.
func (tp *Tape) AddRow(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRow wants 1x%d, got %dx%d", a.Cols, row.Rows, row.Cols))
	}
	nd := tp.push(a.Rows, a.Cols, addRowBack, a, row)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			nd.out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + row.Data[j]
		}
	}
	return &nd.out
}

func addRowBack(nd *node) {
	a, row := nd.a, nd.b
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			g := nd.out.Grad[i*a.Cols+j]
			a.Grad[i*a.Cols+j] += g
			row.Grad[j] += g
		}
	}
}

// MatMul returns a·b.
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	nd := tp.push(a.Rows, b.Cols, matMulBack, a, b)
	matmul(nd.out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return &nd.out
}

// matMulBack computes dA = dOut · Bᵀ and dB = Aᵀ · dOut. Each element
// is one sum, 0 + t₀ + t₁ + … in the order of the shared index, held
// in a register and added to the gradient once; interleaving four
// independent sums hides the add latency without reordering any.
func matMulBack(nd *node) {
	a, b, dOut := nd.a, nd.b, nd.out.Grad
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		grow := dOut[i*n : (i+1)*n]
		agrad := a.Grad[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			b4 := b.Data[p*n : (p+4)*n]
			b0, b1, b2, b3 := b4[:len(grow)], b4[n:n+len(grow)], b4[2*n:2*n+len(grow)], b4[3*n:3*n+len(grow)]
			var s0, s1, s2, s3 float64
			for j, g := range grow {
				s0 += g * b0[j]
				s1 += g * b1[j]
				s2 += g * b2[j]
				s3 += g * b3[j]
			}
			agrad[p] += s0
			agrad[p+1] += s1
			agrad[p+2] += s2
			agrad[p+3] += s3
		}
		for ; p < k; p++ {
			brow := b.Data[p*n : (p+1)*n]
			brow = brow[:len(grow)]
			s := 0.0
			for j, g := range grow {
				s += g * brow[j]
			}
			agrad[p] += s
		}
	}
	// dB four columns at a time.
	j := 0
	for ; j+4 <= n; j += 4 {
		for p := 0; p < k; p++ {
			var s0, s1, s2, s3 float64
			for i := 0; i < m; i++ {
				av := a.Data[i*k+p]
				g4 := dOut[i*n+j : i*n+j+4]
				s0 += av * g4[0]
				s1 += av * g4[1]
				s2 += av * g4[2]
				s3 += av * g4[3]
			}
			b4 := b.Grad[p*n+j : p*n+j+4]
			b4[0] += s0
			b4[1] += s1
			b4[2] += s2
			b4[3] += s3
		}
	}
	for ; j < n; j++ {
		for p := 0; p < k; p++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += a.Data[i*k+p] * dOut[i*n+j]
			}
			b.Grad[p*n+j] += s
		}
	}
}

// MatMulT returns a·bᵀ without materializing the transpose, the form
// attention scores take (Q·Kᵀ).
func (tp *Tape) MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	nd := tp.push(a.Rows, b.Rows, matMulTBack, a, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[j*b.Cols+k]
			}
			nd.out.Data[i*b.Rows+j] = s
		}
	}
	return &nd.out
}

func matMulTBack(nd *node) {
	a, b, dOut := nd.a, nd.b, nd.out.Grad
	// dA = dOut · B ; dB = dOutᵀ · A
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			s := 0.0
			for j := 0; j < b.Rows; j++ {
				s += dOut[i*b.Rows+j] * b.Data[j*b.Cols+k]
			}
			a.Grad[i*a.Cols+k] += s
		}
	}
	for j := 0; j < b.Rows; j++ {
		for k := 0; k < b.Cols; k++ {
			s := 0.0
			for i := 0; i < a.Rows; i++ {
				s += dOut[i*b.Rows+j] * a.Data[i*a.Cols+k]
			}
			b.Grad[j*b.Cols+k] += s
		}
	}
}

// TMatMul returns aᵀ·b without materializing the transpose.
func (tp *Tape) TMatMul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	nd := tp.push(a.Cols, b.Cols, tMatMulBack, a, b)
	for p := 0; p < a.Rows; p++ {
		for i := 0; i < a.Cols; i++ {
			av := a.Data[p*a.Cols+i]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				nd.out.Data[i*b.Cols+j] += av * b.Data[p*b.Cols+j]
			}
		}
	}
	return &nd.out
}

func tMatMulBack(nd *node) {
	a, b, dOut := nd.a, nd.b, nd.out.Grad
	// dA[p][i] = Σ_j dOut[i][j]·B[p][j]; dB[p][j] = Σ_i A[p][i]·dOut[i][j]
	for p := 0; p < a.Rows; p++ {
		for i := 0; i < a.Cols; i++ {
			s := 0.0
			for j := 0; j < b.Cols; j++ {
				s += dOut[i*b.Cols+j] * b.Data[p*b.Cols+j]
			}
			a.Grad[p*a.Cols+i] += s
		}
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for i := 0; i < a.Cols; i++ {
				s += a.Data[p*a.Cols+i] * dOut[i*b.Cols+j]
			}
			b.Grad[p*b.Cols+j] += s
		}
	}
}

// matmul stores a·b (m×k · k×n) into dst. Each element sums its terms
// in p order from 0, skipping zero entries of a, in a register: four
// columns at a time, then one at a time.
func matmul(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				if av == 0 {
					continue
				}
				b4 := b[p*n+j : p*n+j+4]
				s0 += av * b4[0]
				s1 += av * b4[1]
				s2 += av * b4[2]
				s3 += av * b4[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			s := 0.0
			for p, av := range arow {
				if av == 0 {
					continue
				}
				s += av * b[p*n+j]
			}
			drow[j] = s
		}
	}
}
