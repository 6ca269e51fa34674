package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMatMul is MatMul as it was before the row-slice kernels: the
// triple-loop forward and backward, kept as the oracle FuzzTapeReuse
// holds the kernels to.
func (tp *Tape) refMatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("tensor: refMatMul shape mismatch")
	}
	nd := tp.push(a.Rows, b.Cols, refMatMulBack, a, b)
	out := nd.out.Data
	for i := 0; i < a.Rows; i++ {
		for p := 0; p < a.Cols; p++ {
			av := a.Data[i*a.Cols+p]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out[i*b.Cols+j] += av * b.Data[p*b.Cols+j]
			}
		}
	}
	return &nd.out
}

func refMatMulBack(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
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
}

// Op codes of a fuzz program instruction.
const (
	opParam = iota // a persistent parameter tensor, outside the tape
	opLeaf
	opAdd
	opSub
	opMul
	opDiv // x ⊘ (softplus(y) + ½), so the divisor is positive
	opScale
	opAddScalar
	opAddRow
	opMatMul
	opMatMulT
	opTMatMul
	opSigmoid
	opTanh
	opReLU
	opSoftplus
	opLog // ln(softplus(x) + 0.1)
	opSquare
	opSoftmaxRows
	opMean
	opMeanRows
	opConcatCols
	opConcatRows
	opSliceCols
	opGather
	opLayerNorm
	numOps
)

// instr is one step of a fuzz program: op applied to earlier values x
// and y (and, for the concatenations, ids) with its constants.
type instr struct {
	op         int
	x, y, z    int // operand value indices (opParam: parameter index)
	ids        []int
	s          float64
	rows, cols int
	data       []float64
	idx        []int
	from, to   int
}

// program is a random tape workload: parameter shapes and values, then
// instructions over a growing list of values (each instruction yields
// one); the loss sums the means of every value.
type program struct {
	params []*Tensor // templates; each run copies them with zero Grad
	ins    []instr
}

// genProgram draws a program whose shapes come from rng, scaled by
// size so that successive programs on one tape both shrink and grow
// its slots.
func genProgram(rng *rand.Rand, size int) *program {
	p := &program{}
	type shape struct{ r, c int }
	var shapes []shape
	dim := func() int { return 1 + rng.Intn(size) }
	values := func(n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			switch rng.Intn(5) {
			case 0: // exact zeros exercise matmul's skip
			default:
				d[i] = rng.NormFloat64()
			}
		}
		return d
	}
	emit := func(in instr, r, c int) int {
		p.ins = append(p.ins, in)
		shapes = append(shapes, shape{r, c})
		return len(shapes) - 1
	}
	param := func(r, c int) int {
		t := &Tensor{Rows: r, Cols: c, Data: values(r * c)}
		p.params = append(p.params, t)
		return emit(instr{op: opParam, x: len(p.params) - 1}, r, c)
	}
	leaf := func(r, c int) int {
		in := instr{op: opLeaf, rows: r, cols: c}
		if rng.Intn(4) > 0 {
			in.data = values(r * c)
		}
		return emit(in, r, c)
	}
	// find returns a value of shape (r, c), or makes one.
	find := func(r, c int) int {
		var cands []int
		for i, s := range shapes {
			if s.r == r && s.c == c {
				cands = append(cands, i)
			}
		}
		if len(cands) > 0 && rng.Intn(3) > 0 {
			return cands[rng.Intn(len(cands))]
		}
		if rng.Intn(2) == 0 {
			return param(r, c)
		}
		return leaf(r, c)
	}
	param(dim(), dim())
	leaf(dim(), dim())
	n := 4 + rng.Intn(4*size)
	for len(p.ins) < n {
		x := rng.Intn(len(shapes))
		r, c := shapes[x].r, shapes[x].c
		switch op := rng.Intn(numOps); op {
		case opParam:
			param(dim(), dim())
		case opLeaf:
			leaf(dim(), dim())
		case opAdd, opSub, opMul, opDiv:
			y := find(r, c)
			emit(instr{op: op, x: x, y: y}, r, c)
		case opScale, opAddScalar:
			emit(instr{op: op, x: x, s: rng.NormFloat64()}, r, c)
		case opAddRow:
			y := find(1, c)
			emit(instr{op: op, x: x, y: y}, r, c)
		case opMatMul:
			// Mostly one-row inputs and four-column weights, the
			// linear heads' shape, but every size and remainder too.
			nc := dim()
			if rng.Intn(2) == 0 {
				nc = 4 * (1 + rng.Intn(2))
			}
			y := find(c, nc)
			emit(instr{op: op, x: x, y: y}, r, nc)
		case opMatMulT:
			y := find(dim(), c)
			emit(instr{op: op, x: x, y: y}, r, shapes[y].r)
		case opTMatMul:
			y := find(r, dim())
			emit(instr{op: op, x: x, y: y}, c, shapes[y].c)
		case opSigmoid, opTanh, opReLU, opSoftplus, opLog, opSquare, opSoftmaxRows:
			emit(instr{op: op, x: x}, r, c)
		case opMean:
			emit(instr{op: op, x: x}, 1, 1)
		case opMeanRows:
			emit(instr{op: op, x: x}, 1, c)
		case opConcatCols, opConcatRows:
			ids := []int{x}
			total := 0
			for range rng.Intn(3) {
				if op == opConcatCols {
					ids = append(ids, find(r, dim()))
				} else {
					ids = append(ids, find(dim(), c))
				}
			}
			for _, id := range ids {
				if op == opConcatCols {
					total += shapes[id].c
				} else {
					total += shapes[id].r
				}
			}
			if op == opConcatCols {
				emit(instr{op: op, ids: ids}, r, total)
			} else {
				emit(instr{op: op, ids: ids}, total, c)
			}
		case opSliceCols:
			from := rng.Intn(c)
			to := from + 1 + rng.Intn(c-from)
			emit(instr{op: op, x: x, from: from, to: to}, r, to-from)
		case opGather:
			idx := make([]int, 1+rng.Intn(size))
			for i := range idx {
				idx[i] = rng.Intn(r)
			}
			emit(instr{op: op, x: x, idx: idx}, len(idx), c)
		case opLayerNorm:
			y, z := find(1, c), find(1, c)
			emit(instr{op: op, x: x, y: y, z: z}, r, c)
		}
	}
	return p
}

// result is what one run of a program leaves behind: every value's
// Data and every leaf's (parameters' and tape leaves') Grad.
type result struct {
	outputs, grads [][]float64
}

// run records p on tp, with matMul standing in for Tape.MatMul, runs
// Backward, and copies out the result before anything can Reset tp.
func (p *program) run(tp *Tape, matMul func(tp *Tape, a, b *Tensor) *Tensor) result {
	params := make([]*Tensor, len(p.params))
	for i, t := range p.params {
		params[i] = &Tensor{Rows: t.Rows, Cols: t.Cols,
			Data: append([]float64(nil), t.Data...), Grad: make([]float64, len(t.Data))}
	}
	vals := make([]*Tensor, 0, len(p.ins))
	var leaves []*Tensor
	for _, in := range p.ins {
		var v *Tensor
		x := func() *Tensor { return vals[in.x] }
		y := func() *Tensor { return vals[in.y] }
		switch in.op {
		case opParam:
			v = params[in.x]
			leaves = append(leaves, v)
		case opLeaf:
			v = tp.Leaf(in.rows, in.cols, in.data)
			leaves = append(leaves, v)
		case opAdd:
			v = tp.Add(x(), y())
		case opSub:
			v = tp.Sub(x(), y())
		case opMul:
			v = tp.Mul(x(), y())
		case opDiv:
			v = tp.Div(x(), tp.AddScalar(tp.Softplus(y()), 0.5))
		case opScale:
			v = tp.Scale(x(), in.s)
		case opAddScalar:
			v = tp.AddScalar(x(), in.s)
		case opAddRow:
			v = tp.AddRow(x(), y())
		case opMatMul:
			v = matMul(tp, x(), y())
		case opMatMulT:
			v = tp.MatMulT(x(), y())
		case opTMatMul:
			v = tp.TMatMul(x(), y())
		case opSigmoid:
			v = tp.Sigmoid(x())
		case opTanh:
			v = tp.Tanh(x())
		case opReLU:
			v = tp.ReLU(x())
		case opSoftplus:
			v = tp.Softplus(x())
		case opLog:
			v = tp.Log(tp.AddScalar(tp.Softplus(x()), 0.1))
		case opSquare:
			v = tp.Square(x())
		case opSoftmaxRows:
			v = tp.SoftmaxRows(x())
		case opMean:
			v = tp.Mean(x())
		case opMeanRows:
			v = tp.MeanRows(x())
		case opConcatCols, opConcatRows:
			ts := make([]*Tensor, len(in.ids))
			for i, id := range in.ids {
				ts[i] = vals[id]
			}
			if in.op == opConcatCols {
				v = tp.ConcatCols(ts...)
			} else {
				v = tp.ConcatRows(ts...)
			}
		case opSliceCols:
			v = tp.SliceCols(x(), in.from, in.to)
		case opGather:
			v = tp.Gather(x(), in.idx)
		case opLayerNorm:
			v = tp.LayerNorm(x(), y(), vals[in.z], 1e-5)
		}
		vals = append(vals, v)
	}
	loss := tp.Mean(vals[0])
	for _, v := range vals[1:] {
		loss = tp.Add(loss, tp.Mean(v))
	}
	tp.Backward(loss)
	var res result
	for _, v := range vals {
		res.outputs = append(res.outputs, append([]float64(nil), v.Data...))
	}
	for _, l := range leaves {
		res.grads = append(res.grads, append([]float64(nil), l.Grad...))
	}
	return res
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzTapeReuse runs random op programs, whose shapes change from one
// program to the next, three ways: all on one tape reused across
// Reset, each on a NewTape, and each on a NewTape with refMatMul in
// place of MatMul. Every value and every leaf gradient must be
// bit-identical across the three, so slot reuse (shrinking and growing)
// and the row-slice MatMul kernels change no bit.
func FuzzTapeReuse(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 23} {
		f.Add(seed, uint8(4))
	}
	f.Add(int64(5), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		progs := make([]*program, 1+int(n%12))
		for i := range progs {
			progs[i] = genProgram(rng, 1+rng.Intn(6))
		}
		reused := NewTape()
		for i, p := range progs {
			reused.Reset()
			got := p.run(reused, (*Tape).MatMul)
			fresh := p.run(NewTape(), (*Tape).MatMul)
			ref := p.run(NewTape(), (*Tape).refMatMul)
			for _, c := range []struct {
				name string
				r    result
			}{{"fresh tape", fresh}, {"refMatMul", ref}} {
				if !sameBits(got.outputs, c.r.outputs) {
					t.Fatalf("program %d: reused tape's values differ from the %s run", i, c.name)
				}
				if !sameBits(got.grads, c.r.grads) {
					t.Fatalf("program %d: reused tape's leaf gradients differ from the %s run", i, c.name)
				}
			}
		}
	})
}
