package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/task"
)

// checkBook is a usage book's invariant: frac lists exactly the
// positions holding a non-integer value, in ascending order; ints and
// every prefix of the Fenwick tree total the integer values; and top
// bounds them.
func checkBook(b *book) error {
	var frac []int32
	var ints int64
	for p, v := range b.val {
		if b.prefix(p) != ints {
			return fmt.Errorf("prefix(%d) = %d, want %d", p, b.prefix(p), ints)
		}
		if !whole(v) {
			frac = append(frac, int32(p))
			continue
		}
		if v > b.top {
			return fmt.Errorf("value %v at %d above top %v", v, p, b.top)
		}
		ints += int64(v)
	}
	if !slices.Equal(b.frac, frac) || b.ints != ints || b.prefix(len(b.val)) != ints {
		return fmt.Errorf("frac %v ints %d, want %v and %d", b.frac, b.ints, frac, ints)
	}
	return nil
}

// paths replays a book's fold over its filed values in position order,
// as the full walk adds them, and reports which of run's paths the
// integer runs between non-integer values call for. A run that starts
// on a non-integer sum below top must be added one value at a time
// (stepped); one that starts at or above top is added by the binade
// shortcut, which paths recomputes and checks against the one-by-one
// sum, reporting whether a rounding moved the sum (rounded).
func paths(b *book) (rounded, stepped bool, err error) {
	s := 0.0
	for p := 0; p < len(b.val); {
		if v := b.val[p]; !whole(v) {
			s += v
			p++
			continue
		}
		q, one, r := p, s, 0.0
		for ; q < len(b.val) && whole(b.val[q]); q++ {
			one += b.val[q]
			r += b.val[q]
		}
		switch {
		case r == 0 || whole(s):
		case s < b.top:
			stepped = true
		default:
			short := s
			for pw := math.Ldexp(1, math.Ilogb(s)+1); r >= pw-short; pw *= 2 {
				short = float64(short+pw) - pw
			}
			rounded = rounded || short != s
			if short+r != one {
				return rounded, stepped, fmt.Errorf("run [%d, %d) from %v: shortcut %v, one by one %v", p, q, s, short+r, one)
			}
		}
		s, p = one, q
	}
	return rounded, stepped, nil
}

// checkTotals compares the cluster's totals, and each book's fold even
// when its total is cached, with the full walk bit for bit, and reports
// whether any book's fold calls for a binade rounding that moves a sum
// or for the small-sum path (see paths).
func checkTotals(c *Cluster) (rounded, stepped bool, err error) {
	used, hp, spot := bruteAgg(c)
	if got := [3]float64{c.UsedGPUs(""), c.HPGPUs(""), c.SpotGPUs("")}; got != [3]float64{used, hp, spot} {
		return false, false, fmt.Errorf("totals %v, full walk %v", got, [3]float64{used, hp, spot})
	}
	for i, b := range []*book{&c.used, &c.hp, &c.spot} {
		if err := checkBook(b); err != nil {
			return false, false, fmt.Errorf("book %d: %v", i, err)
		}
		if got, want := b.fold(), [3]float64{used, hp, spot}[i]; got != want {
			return false, false, fmt.Errorf("book %d folds %v, full walk %v", i, got, want)
		}
		r, st, err := paths(b)
		if err != nil {
			return false, false, fmt.Errorf("book %d: %v", i, err)
		}
		rounded, stepped = rounded || r, stepped || st
	}
	return rounded, stepped, nil
}

// TestUsageFoldRestartsExactly drives clusters of 200 to 250 nodes,
// grown by pools, through fractional placements drawn from [0.1, 0.9],
// whose sums depend on their order, whole-card placements, releases,
// and failures and returns of occupied nodes, several at scattered
// positions between reads, and checks that the books' totals equal the
// full walk bit for bit. It requires reads that met a non-integer
// value, binade roundings that moved a sum, and values added one at a
// time below the largest integer value.
func TestUsageFoldRestartsExactly(t *testing.T) {
	var fracReads, rounded, stepped, grown int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewHomogeneous("A100", 200+rng.Intn(51), 8)
		size := len(c.nodes)
		var live []*task.Task
		for step, id := 0, 1; step < 300; step++ {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				n := c.nodes[rng.Intn(len(c.nodes))]
				switch r := rng.Intn(12); {
				case r < 6:
					g := 0.1 + 0.8*rng.Float64()
					if r == 0 {
						g = float64(1 + rng.Intn(2))
					}
					tk := newTask(id, task.Type(rng.Intn(2)), 1, g)
					id++
					placed := false
					for p := 1 + rng.Intn(2); p > 0; p-- {
						placed = c.nodes[rng.Intn(len(c.nodes))].PlacePod(tk) == nil || placed
					}
					if placed {
						live = append(live, tk)
					}
				case r < 9 && len(live) > 0:
					i := rng.Intn(len(live))
					for _, m := range c.nodes {
						m.ReleaseTask(live[i])
					}
					live = slices.Delete(live, i, i+1)
				case r < 11:
					n.SetDown(!n.down) // whatever it holds
				case r == 11 && len(c.nodes) < 320:
					c.AddPool(Pool{Model: "A100", Nodes: 1 + rng.Intn(8), GPUsPerNode: 8})
				}
			}
			if len(c.used.frac)+len(c.hp.frac)+len(c.spot.frac) > 0 {
				fracReads++
			}
			r, st, err := checkTotals(c)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if r {
				rounded++
			}
			if st {
				stepped++
			}
		}
		if len(c.nodes) > size {
			grown++
		}
	}
	if fracReads == 0 || rounded == 0 || stepped == 0 || grown == 0 {
		t.Fatalf("%d reads met a non-integer value, %d rounded a sum, %d took the small-sum path, %d runs grew the cluster: too little exercised",
			fracReads, rounded, stepped, grown)
	}
}

// TestUsageSmallSum: below the largest integer value a run cannot be
// added in one step. A sum of 0.022511916928550358 plus an integer 2
// rounds once, to 2.02251191692855; rounding at every power of two on
// the way, as the binade shortcut does, lands a grid step higher.
func TestUsageSmallSum(t *testing.T) {
	var b book
	b.grow()
	b.grow()
	b.file(0, 0.022511916928550358)
	b.file(1, 2)
	if _, stepped, _ := paths(&b); !stepped {
		t.Fatal("a run from 0.0225… below top 2 does not take the small-sum path")
	}
	if got := b.fold(); got != 2.02251191692855 {
		t.Fatalf("fold = %v, want 2.02251191692855", got)
	}
	b.top = 0 // as if 2 were below the sum: the shortcut
	if got := b.fold(); got != 2.0225119169285506 {
		t.Fatalf("binade shortcut = %v, want 2.0225119169285506", got)
	}
}

// TestUsageReadsFileOnce: a total is computed once per change to its
// own book, and an all-integer total is the int64 total.
func TestUsageReadsFileOnce(t *testing.T) {
	c := NewHomogeneous("A100", 40, 8)
	if err := c.nodes[3].PlacePod(newTask(1, task.Spot, 1, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[9].PlacePod(newTask(2, task.HP, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if c.HPGPUs("") != 2 || !c.hp.fresh || c.spot.fresh || c.used.fresh {
		t.Fatalf("reading HP refreshed used %v or spot %v", c.used.fresh, c.spot.fresh)
	}
	if c.UsedGPUs("") != 2.3 || c.SpotGPUs("") != 0.3 {
		t.Fatalf("used %v spot %v", c.UsedGPUs(""), c.SpotGPUs(""))
	}
	c.nodes[20].SetCordoned(true) // no usage moves
	if !c.used.fresh || !c.hp.fresh || !c.spot.fresh {
		t.Fatal("a cordon staled a usage total")
	}
}

// FuzzUsageTotals drives random placements, releases, failures,
// restores and pool growth over small clusters of mixed capacities,
// with shares drawn from tenths and from arbitrary fractions (tenths
// alone almost never reach a double rounding), reading a random subset
// of the totals between operations, and checks every book against the
// full walk bit for bit after each batch.
func FuzzUsageTotals(f *testing.F) {
	for seed := int64(1); seed <= 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		capacities := []int{1, 2, 4, 8, 16}
		c := New()
		for i := range 1 + rng.Intn(96) {
			c.AddNode(NewNode(i, "A100", capacities[rng.Intn(len(capacities))]))
		}
		// Mostly whole cards, so that integer runs cross several
		// binades past a fractional sum.
		share := func() float64 {
			switch rng.Intn(5) {
			case 0:
				return float64(1+rng.Intn(9)) / 10
			case 1:
				return rng.Float64()
			}
			return float64(1 + rng.Intn(8))
		}
		var live []*task.Task
		for step, id := 0, 1; step < 200; step++ {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				n := c.nodes[rng.Intn(len(c.nodes))]
				switch r := rng.Intn(10); {
				case r < 5:
					g := share()
					if g == 0 {
						continue
					}
					tk := newTask(id, task.Type(rng.Intn(2)), 1, g)
					id++
					if n.PlacePod(tk) == nil {
						live = append(live, tk)
					}
				case r < 8 && len(live) > 0:
					i := rng.Intn(len(live))
					for _, m := range c.nodes {
						m.ReleaseTask(live[i])
					}
					live = slices.Delete(live, i, i+1)
				case r == 8:
					n.SetDown(!n.down)
				case r == 9 && len(c.nodes) < 128:
					c.AddPool(Pool{Model: "A100", Nodes: 1 + rng.Intn(4), GPUsPerNode: capacities[rng.Intn(len(capacities))]})
				}
				for _, read := range []func(string) float64{c.UsedGPUs, c.HPGPUs, c.SpotGPUs} {
					if rng.Intn(3) == 0 {
						read("")
					}
				}
			}
			if _, _, err := checkTotals(c); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	})
}
