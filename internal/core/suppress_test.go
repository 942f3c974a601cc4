package core

import (
	"math/rand"
	"testing"
)

// TestGhostRowFilterSuppresses pins the sender-side ghost-row filter: on a
// 4-rank loopback engine it must actually drop offers (the counter is live,
// not dead code), and no transport traffic is reported. The correctness of
// the filter — byte-identical results against the sequential oracle — is
// TestEngineMatchesSequentialReference's.
func TestGhostRowFilterSuppresses(t *testing.T) {
	g := engineTestGraph(7, 400)
	rng := rand.New(rand.NewSource(9))
	e, err := NewEngine(g, Default(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var suppressed int64
	for range 8 {
		res, err := e.Solve(pickEngineSeeds(rng, g.NumVertices(), 8))
		if err != nil {
			t.Fatal(err)
		}
		suppressed += res.Suppressed
		if res.Net.FramesOut != 0 {
			t.Fatalf("loopback solve reports transport traffic: %+v", res.Net)
		}
	}
	if suppressed == 0 {
		t.Fatal("solves suppressed nothing — the ghost-row filter is dead")
	}
}
