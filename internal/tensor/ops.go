package tensor

import (
	"fmt"
	"math"
)

// Sigmoid returns 1/(1+e^{−a}) elementwise.
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = 1 / (1 + math.Exp(-a.Data[i]))
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] * out.Data[i] * (1 - out.Data[i])
		}
	})
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = math.Tanh(a.Data[i])
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] * (1 - out.Data[i]*out.Data[i])
		}
	})
}

// ReLU returns max(a, 0) elementwise.
func (tp *Tape) ReLU(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		if a.Data[i] > 0 {
			out.Data[i] = a.Data[i]
		}
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			if a.Data[i] > 0 {
				a.Grad[i] += out.Grad[i]
			}
		}
	})
}

// Softplus returns log(1+e^a), the paper's variance link (Eq. 7).
func (tp *Tape) Softplus(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = softplus(a.Data[i])
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] / (1 + math.Exp(-a.Data[i]))
		}
	})
}

func softplus(x float64) float64 {
	// Numerically stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
	return math.Max(x, 0) + math.Log1p(math.Exp(-math.Abs(x)))
}

// Log returns ln(a) elementwise.
func (tp *Tape) Log(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = math.Log(a.Data[i])
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] / a.Data[i]
		}
	})
}

// Square returns a² elementwise.
func (tp *Tape) Square(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * a.Data[i]
	}
	return tp.record(out, func() {
		for i := range out.Grad {
			a.Grad[i] += out.Grad[i] * 2 * a.Data[i]
		}
	})
}

// SoftmaxRows applies softmax independently to each row.
func (tp *Tape) SoftmaxRows(a *Tensor) *Tensor {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*a.Cols : (i+1)*a.Cols]
		m := math.Inf(-1)
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return tp.record(out, func() {
		for i := 0; i < a.Rows; i++ {
			orow := out.Data[i*a.Cols : (i+1)*a.Cols]
			grow := out.Grad[i*a.Cols : (i+1)*a.Cols]
			dot := 0.0
			for j := range orow {
				dot += orow[j] * grow[j]
			}
			for j := range orow {
				a.Grad[i*a.Cols+j] += orow[j] * (grow[j] - dot)
			}
		}
	})
}

// Mean reduces to a 1×1 scalar average.
func (tp *Tape) Mean(a *Tensor) *Tensor {
	out := New(1, 1)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	n := float64(len(a.Data))
	out.Data[0] = s / n
	return tp.record(out, func() {
		g := out.Grad[0] / n
		for i := range a.Grad {
			a.Grad[i] += g
		}
	})
}

// MeanRows averages over rows, producing a 1×cols row vector (mean
// pooling over a sequence).
func (tp *Tape) MeanRows(a *Tensor) *Tensor {
	out := New(1, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j] += a.Data[i*a.Cols+j]
		}
	}
	n := float64(a.Rows)
	for j := range out.Data {
		out.Data[j] /= n
	}
	return tp.record(out, func() {
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				a.Grad[i*a.Cols+j] += out.Grad[j] / n
			}
		}
	})
}

// ConcatCols stacks tensors with equal row counts side by side.
func (tp *Tape) ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.Rows, rows))
		}
		cols += t.Cols
	}
	out := New(rows, cols)
	off := 0
	for _, t := range ts {
		for i := 0; i < rows; i++ {
			copy(out.Data[i*cols+off:i*cols+off+t.Cols], t.Data[i*t.Cols:(i+1)*t.Cols])
		}
		off += t.Cols
	}
	return tp.record(out, func() {
		off := 0
		for _, t := range ts {
			for i := 0; i < rows; i++ {
				for j := 0; j < t.Cols; j++ {
					t.Grad[i*t.Cols+j] += out.Grad[i*cols+off+j]
				}
			}
			off += t.Cols
		}
	})
}

// ConcatRows stacks tensors with equal column counts vertically.
func (tp *Tape) ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", t.Cols, cols))
		}
		rows += t.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	return tp.record(out, func() {
		off := 0
		for _, t := range ts {
			for i := range t.Grad {
				t.Grad[i] += out.Grad[off+i]
			}
			off += len(t.Data)
		}
	})
}

// SliceCols returns columns [from, to) as a view-copy.
func (tp *Tape) SliceCols(a *Tensor, from, to int) *Tensor {
	if from < 0 || to > a.Cols || from >= to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, a.Cols))
	}
	w := to - from
	out := New(a.Rows, w)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*w:(i+1)*w], a.Data[i*a.Cols+from:i*a.Cols+to])
	}
	return tp.record(out, func() {
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < w; j++ {
				a.Grad[i*a.Cols+from+j] += out.Grad[i*w+j]
			}
		}
	})
}

// Gather selects rows of table by index, implementing embedding
// lookup; gradients scatter back into the table.
func (tp *Tape) Gather(table *Tensor, idx []int) *Tensor {
	out := New(len(idx), table.Cols)
	for i, ix := range idx {
		if ix < 0 || ix >= table.Rows {
			panic(fmt.Sprintf("tensor: Gather index %d out of %d rows", ix, table.Rows))
		}
		copy(out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[ix*table.Cols:(ix+1)*table.Cols])
	}
	return tp.record(out, func() {
		for i, ix := range idx {
			for j := 0; j < table.Cols; j++ {
				table.Grad[ix*table.Cols+j] += out.Grad[i*table.Cols+j]
			}
		}
	})
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies elementwise gain and bias (1×cols row vectors).
func (tp *Tape) LayerNorm(a, gain, bias *Tensor, eps float64) *Tensor {
	if gain.Rows != 1 || gain.Cols != a.Cols || bias.Rows != 1 || bias.Cols != a.Cols {
		panic("tensor: LayerNorm gain/bias must be 1×cols")
	}
	out := New(a.Rows, a.Cols)
	n := float64(a.Cols)
	means := make([]float64, a.Rows)
	invstd := make([]float64, a.Rows)
	xhat := make([]float64, len(a.Data))
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		m := 0.0
		for _, v := range row {
			m += v
		}
		m /= n
		va := 0.0
		for _, v := range row {
			d := v - m
			va += d * d
		}
		va /= n
		is := 1 / math.Sqrt(va+eps)
		means[i], invstd[i] = m, is
		for j, v := range row {
			h := (v - m) * is
			xhat[i*a.Cols+j] = h
			out.Data[i*a.Cols+j] = h*gain.Data[j] + bias.Data[j]
		}
	}
	return tp.record(out, func() {
		for i := 0; i < a.Rows; i++ {
			// Accumulate per-row reductions of the standard
			// layer-norm backward.
			var sumG, sumGX float64
			for j := 0; j < a.Cols; j++ {
				g := out.Grad[i*a.Cols+j] * gain.Data[j]
				sumG += g
				sumGX += g * xhat[i*a.Cols+j]
			}
			for j := 0; j < a.Cols; j++ {
				g := out.Grad[i*a.Cols+j] * gain.Data[j]
				h := xhat[i*a.Cols+j]
				a.Grad[i*a.Cols+j] += invstd[i] * (g - sumG/n - h*sumGX/n)
				gain.Grad[j] += out.Grad[i*a.Cols+j] * h
				bias.Grad[j] += out.Grad[i*a.Cols+j]
			}
		}
	})
}
