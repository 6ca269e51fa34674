package tensor

import (
	"fmt"
	"math"
)

// Sigmoid returns 1/(1+e^{−a}) elementwise.
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, sigmoidBack, a, nil)
	for i := range nd.out.Data {
		nd.out.Data[i] = 1 / (1 + math.Exp(-a.Data[i]))
	}
	return &nd.out
}

func sigmoidBack(nd *node) {
	out := &nd.out
	for i, g := range out.Grad {
		nd.a.Grad[i] += g * out.Data[i] * (1 - out.Data[i])
	}
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, tanhBack, a, nil)
	for i := range nd.out.Data {
		nd.out.Data[i] = math.Tanh(a.Data[i])
	}
	return &nd.out
}

func tanhBack(nd *node) {
	out := &nd.out
	for i, g := range out.Grad {
		nd.a.Grad[i] += g * (1 - out.Data[i]*out.Data[i])
	}
}

// ReLU returns max(a, 0) elementwise.
func (tp *Tape) ReLU(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, reluBack, a, nil)
	for i := range nd.out.Data {
		if a.Data[i] > 0 {
			nd.out.Data[i] = a.Data[i]
		}
	}
	return &nd.out
}

func reluBack(nd *node) {
	a := nd.a
	for i, g := range nd.out.Grad {
		if a.Data[i] > 0 {
			a.Grad[i] += g
		}
	}
}

// Softplus returns log(1+e^a), the paper's variance link (Eq. 7).
func (tp *Tape) Softplus(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, softplusBack, a, nil)
	for i := range nd.out.Data {
		nd.out.Data[i] = softplus(a.Data[i])
	}
	return &nd.out
}

func softplusBack(nd *node) {
	a := nd.a
	for i, g := range nd.out.Grad {
		a.Grad[i] += g / (1 + math.Exp(-a.Data[i]))
	}
}

func softplus(x float64) float64 {
	// Numerically stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|}).
	return math.Max(x, 0) + math.Log1p(math.Exp(-math.Abs(x)))
}

// Log returns ln(a) elementwise.
func (tp *Tape) Log(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, logBack, a, nil)
	for i := range nd.out.Data {
		nd.out.Data[i] = math.Log(a.Data[i])
	}
	return &nd.out
}

func logBack(nd *node) {
	a := nd.a
	for i, g := range nd.out.Grad {
		a.Grad[i] += g / a.Data[i]
	}
}

// Square returns a² elementwise.
func (tp *Tape) Square(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, squareBack, a, nil)
	for i := range nd.out.Data {
		nd.out.Data[i] = a.Data[i] * a.Data[i]
	}
	return &nd.out
}

func squareBack(nd *node) {
	a := nd.a
	for i, g := range nd.out.Grad {
		a.Grad[i] += g * 2 * a.Data[i]
	}
}

// SoftmaxRows applies softmax independently to each row.
func (tp *Tape) SoftmaxRows(a *Tensor) *Tensor {
	nd := tp.push(a.Rows, a.Cols, softmaxRowsBack, a, nil)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := nd.out.Data[i*a.Cols : (i+1)*a.Cols]
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
	return &nd.out
}

func softmaxRowsBack(nd *node) {
	a, out := nd.a, &nd.out
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
}

// Mean reduces to a 1×1 scalar average.
func (tp *Tape) Mean(a *Tensor) *Tensor {
	nd := tp.push(1, 1, meanBack, a, nil)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	nd.out.Data[0] = s / float64(len(a.Data))
	return &nd.out
}

func meanBack(nd *node) {
	g := nd.out.Grad[0] / float64(len(nd.a.Data))
	for i := range nd.a.Grad {
		nd.a.Grad[i] += g
	}
}

// MeanRows averages over rows, producing a 1×cols row vector (mean
// pooling over a sequence).
func (tp *Tape) MeanRows(a *Tensor) *Tensor {
	nd := tp.push(1, a.Cols, meanRowsBack, a, nil)
	out := nd.out.Data
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out[j] += a.Data[i*a.Cols+j]
		}
	}
	n := float64(a.Rows)
	for j := range out {
		out[j] /= n
	}
	return &nd.out
}

func meanRowsBack(nd *node) {
	a := nd.a
	n := float64(a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			a.Grad[i*a.Cols+j] += nd.out.Grad[j] / n
		}
	}
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
	nd := tp.push(rows, cols, concatColsBack, nil, nil)
	nd.ts = append(nd.ts[:0], ts...)
	off := 0
	for _, t := range ts {
		for i := 0; i < rows; i++ {
			copy(nd.out.Data[i*cols+off:i*cols+off+t.Cols], t.Data[i*t.Cols:(i+1)*t.Cols])
		}
		off += t.Cols
	}
	return &nd.out
}

func concatColsBack(nd *node) {
	rows, cols := nd.out.Rows, nd.out.Cols
	off := 0
	for _, t := range nd.ts {
		for i := 0; i < rows; i++ {
			for j := 0; j < t.Cols; j++ {
				t.Grad[i*t.Cols+j] += nd.out.Grad[i*cols+off+j]
			}
		}
		off += t.Cols
	}
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
	nd := tp.push(rows, cols, concatRowsBack, nil, nil)
	nd.ts = append(nd.ts[:0], ts...)
	off := 0
	for _, t := range ts {
		copy(nd.out.Data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	return &nd.out
}

func concatRowsBack(nd *node) {
	off := 0
	for _, t := range nd.ts {
		for i := range t.Grad {
			t.Grad[i] += nd.out.Grad[off+i]
		}
		off += len(t.Data)
	}
}

// SliceCols returns columns [from, to) as a view-copy.
func (tp *Tape) SliceCols(a *Tensor, from, to int) *Tensor {
	if from < 0 || to > a.Cols || from >= to {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", from, to, a.Cols))
	}
	w := to - from
	nd := tp.push(a.Rows, w, sliceColsBack, a, nil)
	nd.from = from
	for i := 0; i < a.Rows; i++ {
		copy(nd.out.Data[i*w:(i+1)*w], a.Data[i*a.Cols+from:i*a.Cols+to])
	}
	return &nd.out
}

func sliceColsBack(nd *node) {
	a, w := nd.a, nd.out.Cols
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < w; j++ {
			a.Grad[i*a.Cols+nd.from+j] += nd.out.Grad[i*w+j]
		}
	}
}

// Gather selects rows of table by index, implementing embedding
// lookup; gradients scatter back into the table. The tape keeps its
// own copy of idx.
func (tp *Tape) Gather(table *Tensor, idx []int) *Tensor {
	for _, ix := range idx {
		if ix < 0 || ix >= table.Rows {
			panic(fmt.Sprintf("tensor: Gather index %d out of %d rows", ix, table.Rows))
		}
	}
	nd := tp.push(len(idx), table.Cols, gatherBack, table, nil)
	nd.idx = append(nd.idx[:0], idx...)
	for i, ix := range idx {
		copy(nd.out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[ix*table.Cols:(ix+1)*table.Cols])
	}
	return &nd.out
}

func gatherBack(nd *node) {
	table := nd.a
	for i, ix := range nd.idx {
		for j := 0; j < table.Cols; j++ {
			table.Grad[ix*table.Cols+j] += nd.out.Grad[i*table.Cols+j]
		}
	}
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies elementwise gain and bias (1×cols row vectors).
func (tp *Tape) LayerNorm(a, gain, bias *Tensor, eps float64) *Tensor {
	if gain.Rows != 1 || gain.Cols != a.Cols || bias.Rows != 1 || bias.Cols != a.Cols {
		panic("tensor: LayerNorm gain/bias must be 1×cols")
	}
	nd := tp.push(a.Rows, a.Cols, layerNormBack, a, gain)
	nd.c = bias
	// The backward reads x̂ (rows×cols) and 1/σ per row from aux.
	nd.aux = zeroed(nd.aux, len(a.Data)+a.Rows)
	xhat, invstd := nd.aux[:len(a.Data)], nd.aux[len(a.Data):]
	n := float64(a.Cols)
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
		invstd[i] = is
		for j, v := range row {
			h := (v - m) * is
			xhat[i*a.Cols+j] = h
			nd.out.Data[i*a.Cols+j] = h*gain.Data[j] + bias.Data[j]
		}
	}
	return &nd.out
}

func layerNormBack(nd *node) {
	a, gain, bias, out := nd.a, nd.b, nd.c, &nd.out
	xhat, invstd := nd.aux[:len(a.Data)], nd.aux[len(a.Data):]
	n := float64(a.Cols)
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
}
