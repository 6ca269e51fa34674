package forecast

import (
	"math/rand"
	"sync"

	"github.com/sjtucitlab/gfs/internal/nn"
	"github.com/sjtucitlab/gfs/internal/tensor"
)

// trainConfig is the optimization schedule fit reads: minibatch Adam
// with gradients clipped at norm 5. Every model fixes its rate and
// batch size and takes only its epoch budget from the caller.
type trainConfig struct {
	epochs    int     // shuffled passes over the examples
	lr        float64 // Adam's learning rate
	batchSize int     // examples per Adam step
}

// trainSeed seeds every model's initialization and shuffling.
const trainSeed = 1

// window is one example as a forward pass reads it: the scaler of its
// history, the scaled history and future and, for the decomposition
// models, the trend/cyclical split of the scaled history (Eqs. 1–2).
// All of it is a fixed function of the example, so fit prepares each
// example once per Fit, and prediction prepares its example the same
// way.
type window struct {
	ex           Example
	sc           scaler
	hist, future []float64
	trend, cyc   []float64
}

// prepare builds ex's window in buf, allocating a new buffer when buf
// is too short, and returns the buffer it used. A positive kernel also
// decomposes the scaled history; the models that decompose inside the
// network pass 0.
func prepare(ex Example, kernel int, buf []float64) (window, []float64) {
	w := window{ex: ex, sc: newScaler(ex.History)}
	l, h := len(ex.History), len(ex.Future)
	n := l + h
	if kernel > 0 {
		n += 2 * l
	}
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	scaled := w.sc.apply(buf[:0], ex.History)
	scaled = w.sc.apply(scaled, ex.Future)
	w.hist, w.future = scaled[:l:l], scaled[l:l+h:l+h]
	if kernel > 0 {
		w.trend, w.cyc = buf[l+h:2*l+h:2*l+h], buf[2*l+h:]
		decompose(w.hist, kernel, w.trend, w.cyc)
	}
	return w, buf
}

// fit is the one training loop. It checks train's shape, lets build
// draw the layers for (L, H) from a generator seeded by trainSeed and
// return their parameters, prepares every example once, then runs
// tc.epochs passes of minibatch Adam over loss. Each pass shuffles
// with the generator build drew from, and a batch's gradients
// accumulate one example at a time in shuffled order.
func fit(tc trainConfig, train []Example, kernel int,
	build func(l, h int, rng *rand.Rand) []*tensor.Tensor,
	loss func(tp *tensor.Tape, w window) *tensor.Tensor,
) error {
	l, h, err := shapeOf(train)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(trainSeed))
	params := build(l, h, rng)
	ws := make([]window, len(train))
	for i, ex := range train {
		ws[i], _ = prepare(ex, kernel, nil)
	}
	opt := nn.NewAdam(params, tc.lr)
	opt.Clip = 5
	idx := make([]int, len(ws))
	for i := range idx {
		idx[i] = i
	}
	tp := tensor.NewTape()
	for epoch := 0; epoch < tc.epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for b := 0; b < len(idx); b += tc.batchSize {
			nn.ZeroGrads(params)
			for _, i := range idx[b:min(b+tc.batchSize, len(idx))] {
				tp.Reset()
				tp.Backward(loss(tp, ws[i]))
			}
			opt.Step()
		}
	}
	return nil
}

// mse is the point models' loss: the squared error of forward's
// scaled forecast against the scaled future.
func mse(forward func(*tensor.Tape, window) *tensor.Tensor) func(*tensor.Tape, window) *tensor.Tensor {
	return func(tp *tensor.Tape, w window) *tensor.Tensor {
		return nn.MSE(tp, forward(tp, w), tp.Leaf(1, len(w.future), w.future))
	}
}

// nll is the Gaussian models' loss (Eq. 8): the negative
// log-likelihood of the scaled future under forward's (mu, sigma).
func nll(forward func(*tensor.Tape, window) (mu, sigma *tensor.Tensor)) func(*tensor.Tape, window) *tensor.Tensor {
	return func(tp *tensor.Tape, w window) *tensor.Tensor {
		mu, sigma := forward(tp, w)
		return nn.GaussianNLL(tp, mu, sigma, tp.Leaf(1, len(w.future), w.future))
	}
}

// scratch is what one prediction borrows from the pool: a tape, and
// the buffer its window is prepared in.
type scratch struct {
	tp  *tensor.Tape
	buf []float64
}

// scratches is the pool of prediction scratch. A trained model is
// shared read-only by concurrent forecasters, so a prediction borrows
// its tape and window buffer here instead of keeping them on the
// model. A pooled tape keeps its slots' buffers, but not the tensors
// of the model it last ran, until a garbage collection frees it.
var scratches = sync.Pool{New: func() any { return &scratch{tp: tensor.NewTape()} }}

// getScratch borrows prediction scratch and prepares ex's window in it.
func getScratch(ex Example, kernel int) (*scratch, window) {
	ps := scratches.Get().(*scratch)
	var w window
	w, ps.buf = prepare(ex, kernel, ps.buf)
	return ps, w
}

// put resets the borrowed tape and returns the scratch to the pool.
func (ps *scratch) put() {
	ps.tp.Reset()
	scratches.Put(ps)
}

// predict is every point model's Predict: zeros before Fit (params is
// nil), otherwise forward on ex's window, mapped back to demand units.
func predict(params []*tensor.Tensor, ex Example, kernel int,
	forward func(*tensor.Tape, window) *tensor.Tensor,
) []float64 {
	if params == nil {
		return make([]float64, len(ex.Future))
	}
	ps, w := getScratch(ex, kernel)
	defer ps.put()
	return w.sc.invert(forward(ps.tp, w).Row(0))
}

// predictDist is predict for the Gaussian models, which forecast zero
// means with unit deviations before Fit.
func predictDist(params []*tensor.Tensor, ex Example, kernel int,
	forward func(*tensor.Tape, window) (mu, sigma *tensor.Tensor),
) (mu, sigma []float64) {
	if params == nil {
		return make([]float64, len(ex.Future)), ones(len(ex.Future))
	}
	ps, w := getScratch(ex, kernel)
	defer ps.put()
	muT, sigmaT := forward(ps.tp, w)
	return w.sc.invert(muT.Row(0)), w.sc.invertStd(sigmaT.Row(0))
}

// seqInput encodes a window's scaled history as a seq×3 leaf of
// [value, hour/24, weekday/7] rows, the input layout shared by the
// attention-family baselines.
func seqInput(tp *tensor.Tape, w window) *tensor.Tensor {
	x := tp.Leaf(len(w.hist), 3, nil)
	for t, v := range w.hist {
		f := hourFeatures(w.ex.StartHour + t)
		x.Set(t, 0, v)
		x.Set(t, 1, float64(f.Hour)/24)
		x.Set(t, 2, float64(f.Weekday)/7)
	}
	return x
}
