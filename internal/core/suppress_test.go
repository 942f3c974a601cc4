package core

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
)

// TestChangedSinceFilterSuppresses pins the sender-side filters and the
// delegate outbox: on a hub-heavy graph with delegates enabled they must
// actually drop and batch offers (the counters are live, not dead code).
// What a delegate-free solve reports, and the correctness of the filters —
// byte-identical results against the sequential oracle, delegates on and
// off — is TestEngineMatchesSequentialReference's.
func TestChangedSinceFilterSuppresses(t *testing.T) {
	g := engineTestGraph(7, 400)
	rng := rand.New(rand.NewSource(9))
	seedSets := make([][]graph.VID, 8)
	for i := range seedSets {
		seedSets[i] = pickEngineSeeds(rng, g.NumVertices(), 8)
	}

	withDelegates := Default(4)
	withDelegates.DelegateThreshold = 6
	e, err := NewEngine(g, withDelegates)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var suppressed, batched int64
	for _, seeds := range seedSets {
		res, err := e.Solve(seeds)
		if err != nil {
			t.Fatal(err)
		}
		suppressed += res.Suppressed
		batched += res.BatchedBroadcasts
		if res.CoalescedBroadcasts < 0 {
			t.Fatalf("negative coalesced count %d", res.CoalescedBroadcasts)
		}
		if res.Net.FramesOut != 0 {
			t.Fatalf("loopback solve reports transport traffic: %+v", res.Net)
		}
	}
	if suppressed == 0 {
		t.Fatal("delegate solves suppressed nothing — the changed-since filter is dead")
	}
	if batched == 0 {
		t.Fatal("delegate solves batched nothing — the superstep outbox is dead")
	}
}
