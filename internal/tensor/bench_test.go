package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul times one MatMul forward and its backward on a
// reused tape, at the shape of OrgLinear's three heads (1×184·184×4)
// and at a small square one (3×4·4×4).
func BenchmarkMatMul(b *testing.B) {
	for _, sh := range []struct{ m, k, n int }{{1, 184, 4}, {3, 4, 4}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w := randT(rng, sh.m, sh.k), randT(rng, sh.k, sh.n)
			dOut := randT(rng, sh.m, sh.n).Data
			tp := NewTape()
			b.ReportAllocs()
			for b.Loop() {
				tp.Reset()
				copy(tp.MatMul(x, w).Grad, dOut)
				nd := tp.nodes[0]
				nd.back(nd)
			}
		})
	}
}
