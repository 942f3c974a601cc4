package core

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
)

// TestChangedSinceFilterSuppresses pins the sender-side filters and the
// delegate outbox: on a hub-heavy graph with delegates enabled they must
// actually drop and batch offers (the counters are live, not dead code),
// while a delegate-free solve still suppresses — the ghost-row filter needs
// no delegates — but reports no outbox traffic, and the unfiltered GlobalCSR
// oracle reports zero. Correctness of the filters — byte-identical results
// against that oracle — is covered by the shard/slab equivalence suites,
// which run with delegates on and off.
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
		suppressed += res.SuppressedBroadcasts
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

	plain, err := NewEngine(g, Default(4))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	res, err := plain.Solve(seedSets[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.SuppressedBroadcasts == 0 {
		t.Fatal("delegate-free solve suppressed nothing — the ghost-row filter is dead")
	}
	if res.BatchedBroadcasts != 0 || res.CoalescedBroadcasts != 0 {
		t.Fatalf("delegate-free solve reports outbox traffic: batched=%d coalesced=%d",
			res.BatchedBroadcasts, res.CoalescedBroadcasts)
	}

	blind := Default(4)
	blind.GlobalCSR = true
	oracle, err := NewEngine(g, blind)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if res, err = oracle.Solve(seedSets[0]); err != nil {
		t.Fatal(err)
	}
	if res.SuppressedBroadcasts != 0 {
		t.Fatalf("GlobalCSR oracle suppressed %d offers; it must send blind", res.SuppressedBroadcasts)
	}
}
