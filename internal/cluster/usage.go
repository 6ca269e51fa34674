package cluster

import (
	"math"
	"math/bits"
	"slices"
)

// book keeps one whole-cluster usage total — used, HP or spot GPUs —
// for reads that cost what the nodes holding a fractional share cost,
// not what the cluster costs. The total is, bit for bit, the fold the
// per-call scans ran:
//
//	s := 0.0
//	for each node, in position order: s += v
//
// where v is the node's value (0 for a down node). Node.bump files
// every node's value, so the book knows the values without a walk.
//
// An integer v leaves s exact while s is an integer, so a book sums its
// integer values as an int64 and reads that total in O(1) when every
// value is an integer. Otherwise fold replays the float fold visiting
// only the non-integer positions: each is added as a float, and each
// run of integer values between two of them (R, read off a Fenwick
// tree) is added in one step, as follows.
//
// Let s, the sum before the run, lie in the binade [2ᵉ, 2ᵉ⁺¹), whose
// grid is g = 2ᵉ⁻⁵². Values are ≥ 0 and sums stay below 2⁵¹, so every
// binade a sum reaches has a grid of at most ¼, and every integer is a
// multiple of twice that grid. Adding an integer v is then exact while
// s + v stays in s's binade: the sum is a multiple of g there. When
// s + v reaches 2ᵉ⁺¹ and stays below 2ᵉ⁺², the addition rounds to the
// grid 2g of the next binade, and rounding to a grid commutes with
// adding a multiple of twice the grid, ties to even included (the
// parity of the quotient does not move). So a run of integer steps,
// none of which skips a binade, gives: s rounded, once for every power
// of two the partial sums reach, to that power's grid, then plus R,
// exactly. A step v ≤ s cannot skip a binade (s + v ≤ 2s < 2ᵉ⁺²), and
// the sum only grows, so once s is at least top, the largest integer
// value ever filed, every later step in the run is such a step. Below
// top, run adds the run's non-zero values one at a time, as the fold
// does, until s reaches it (at most top steps, each value being ≥ 1).
//
// Rounding s ≤ p to the grid of the binade [p, 2p) is fl(s + p) − p:
// s + p lies in that binade, so the addition rounds to its grid, ties
// to even, and the subtraction is exact. So is p − s, the distance the
// run must cover to reach p: s, and with it p − s < p, lies on the grid
// of the binade [p/2, p).
type book struct {
	// val is the value last filed for each node position.
	val []float64
	// ints totals the integer values, and tree is their Fenwick tree:
	// tree[i-1] holds the integer values at positions [i − i&−i, i),
	// and a non-integer position counts 0 there.
	ints int64
	tree []int64
	// top is the largest integer value ever filed.
	top float64
	// frac lists the positions whose value is not an integer, in
	// ascending order.
	frac []int32
	// sum is the total as of the last read, and fresh reports that no
	// value has changed since.
	sum   float64
	fresh bool
}

// whole reports whether v is an integer.
func whole(v float64) bool { return v == float64(int64(v)) }

// reserve makes room for n more positions.
func (b *book) reserve(n int) {
	b.val = slices.Grow(b.val, n)
	b.tree = slices.Grow(b.tree, n)
}

// grow adds a position holding 0. Its Fenwick node i covers positions
// [i − i&−i, i), the union of the nodes i−1, then each next one down
// with its lowest bit cleared: amortized O(1) nodes.
func (b *book) grow() {
	i := len(b.tree) + 1
	var t int64
	for j := i - 1; j > i-i&-i; j &= j - 1 {
		t += b.tree[j-1]
	}
	b.val = append(b.val, 0)
	b.tree = append(b.tree, t)
}

// file records v as the value at position p.
func (b *book) file(p int, v float64) {
	old := b.val[p]
	if v == old {
		return
	}
	b.val[p], b.fresh = v, false
	var d int64
	if whole(old) {
		d -= int64(old)
	} else {
		i, _ := slices.BinarySearch(b.frac, int32(p))
		b.frac = slices.Delete(b.frac, i, i+1)
	}
	if whole(v) {
		d += int64(v)
		b.top = max(b.top, v)
	} else {
		i, _ := slices.BinarySearch(b.frac, int32(p))
		b.frac = slices.Insert(b.frac, i, int32(p))
	}
	if d == 0 {
		return
	}
	b.ints += d
	for i := p + 1; i <= len(b.tree); i += i & -i {
		b.tree[i-1] += d
	}
}

// prefix is the total of the integer values at positions [0, k).
func (b *book) prefix(k int) int64 {
	var s int64
	for ; k > 0; k &= k - 1 {
		s += b.tree[k-1]
	}
	return s
}

// next returns the first position whose integer value takes the
// running integer total past below.
func (b *book) next(below int64) int {
	p := 0
	for step := 1 << (bits.Len(uint(len(b.tree))) - 1); step > 0; step >>= 1 {
		if q := p + step; q <= len(b.tree) && b.tree[q-1] <= below {
			p, below = q, below-b.tree[q-1]
		}
	}
	return p
}

// total returns the fold over the filed values.
func (b *book) total() float64 {
	if !b.fresh {
		if len(b.frac) == 0 {
			b.sum = float64(b.ints)
		} else {
			b.sum = b.fold()
		}
		b.fresh = true
	}
	return b.sum
}

// fold is the fold over every position, visiting only the non-integer
// positions.
func (b *book) fold() float64 {
	s, below := 0.0, int64(0)
	for _, p := range b.frac {
		at := b.prefix(int(p))
		s = b.run(s, below, at) + b.val[p]
		below = at
	}
	return b.run(s, below, b.ints)
}

// run adds to s the integer values that take the running integer total
// from below to at, as the fold adds them one by one.
func (b *book) run(s float64, below, at int64) float64 {
	for below < at {
		if whole(s) {
			return s + float64(at-below)
		}
		if s >= b.top {
			r := float64(at - below)
			p := math.Float64frombits(math.Float64bits(s)&^(1<<52-1) + 1<<52) // the power of two above s
			for ; r >= p-s; p *= 2 {
				s = float64(s+p) - p
			}
			return s + r
		}
		v := b.val[b.next(below)]
		s += v
		below += int64(v)
	}
	return s
}
