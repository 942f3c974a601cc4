package core

import (
	"math/rand"
	"testing"
)

// BenchmarkFragmentMST times a warm loopback engine at high terminal count —
// the regime where the cross-edge table is largest and phases 3–5 carry the
// solve. Tracked by benchgate so the loopback cost of the fragment merge
// can't drift silently PR over PR.
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
