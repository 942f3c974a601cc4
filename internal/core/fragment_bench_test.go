package core

import (
	"math/rand"
	"testing"
)

// BenchmarkFragmentMST times a warm loopback solve at k = 512 on 4 ranks —
// the regime where the cross-edge table is largest and phases 2–5 plus rank
// 0's tree merge and result check carry a large share of the solve. Those
// run on pooled flat tables and sorted slices, so a map or a per-query
// allocation creeping back shows here.
func BenchmarkFragmentMST(b *testing.B) {
	const n, k = 4000, 512
	g := engineTestGraph(41, n)
	rng := rand.New(rand.NewSource(9))
	seeds := pickEngineSeeds(rng, n, k)
	b.Run("fragment", func(b *testing.B) {
		e, err := NewEngine(g, Default(4))
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Solve(seeds); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Solve(seeds); err != nil {
				b.Fatal(err)
			}
		}
	})
}
