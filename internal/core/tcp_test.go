package core

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// TestTCPBackendErrors pins the error paths: disconnected seeds fail the
// query but keep the session serving, duplicate seeds are rejected
// coordinator-side, and sibling pools are refused.
func TestTCPBackendErrors(t *testing.T) {
	// Two components: vertices 0..4 chained, 5..9 chained.
	b := graph.NewBuilder(10)
	for v := 1; v < 5; v++ {
		b.AddEdge(graph.VID(v-1), graph.VID(v), 1)
	}
	for v := 6; v < 10; v++ {
		b.AddEdge(graph.VID(v-1), graph.VID(v), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Ranks: 2, Queue: rt.QueuePriority}
	e, shutdown := startChaosFleet(t, g, opts, 2, nil)
	defer shutdown(true)

	if _, err := e.Solve([]graph.VID{0, 9}); err == nil {
		t.Fatal("disconnected seeds solved")
	}
	if _, err := e.Solve([]graph.VID{0, 0}); err == nil {
		t.Fatal("duplicate seeds solved")
	}
	// The session must still answer a well-formed query.
	res, err := e.Solve([]graph.VID{0, 4})
	if err != nil {
		t.Fatalf("session dead after failed query: %v", err)
	}
	if res.TotalDistance != 4 {
		t.Fatalf("chain distance %d, want 4", res.TotalDistance)
	}
	if _, err := e.NewSibling(); err == nil {
		t.Fatal("tcp engine allowed a sibling")
	}
}

// TestTCPTinyQueriesTerminateCleanly repeats a two-message-round query on a
// nine-vertex graph over fresh two-worker fleets. A solve this small spends
// its time in termination rounds, which is where a receive that was counted
// before it was delivered once let a traversal end with a batch in flight
// (runtime.Comm.Inbound): the late offers then surfaced in the next
// traversal, now phase 6's tree walk, where they can change the tree this
// test compares. Timing-dependent by nature — the race detector's
// scheduling finds it within a few dozen rounds.
func TestTCPTinyQueriesTerminateCleanly(t *testing.T) {
	b := graph.NewBuilder(9)
	for _, e := range [][3]int32{
		{0, 1, 16}, {0, 4, 2}, {4, 5, 4}, {1, 5, 2}, {1, 2, 20}, {5, 6, 1},
		{2, 6, 1}, {2, 3, 24}, {6, 7, 2}, {3, 7, 2}, {7, 8, 2}, {3, 8, 18},
	} {
		b.AddEdge(graph.VID(e[0]), graph.VID(e[1]), uint32(e[2]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(g, []graph.VID{0, 8}, Default(2))
	if err != nil {
		t.Fatal(err)
	}
	rounds := 100
	if testing.Short() {
		rounds = 30
	}
	for round := 0; round < rounds; round++ {
		e, shutdown := startChaosFleet(t, g, Default(2), 2, nil)
		for i := 0; i < 3; i++ {
			got, err := e.Solve([]graph.VID{0, 8})
			if err != nil {
				t.Fatalf("round %d solve %d: %v", round, i, err)
			}
			assertResultsEquivalent(t, "tiny tcp", got, want)
		}
		shutdown(true)
	}
}

// BenchmarkTCPTinySolve times a warm tree solve on a 2-worker rankd fleet
// over loopback TCP: 64 vertices and 4 terminals, so the solve is almost
// all collective and termination latency rather than compute. Time per
// solve varies between runs by more than the changes it is asked to bound,
// so it also reports each solve's wire frames (frames/op) and socket writes
// (writes/op, the flush histogram's sum), which the scheduler moves far
// less.
func BenchmarkTCPTinySolve(b *testing.B) {
	g := engineTestGraph(64, 64)
	seeds := pickEngineSeeds(rand.New(rand.NewSource(4)), g.NumVertices(), 4)
	e, shutdown := startChaosFleet(b, g, Default(2), 2, nil)
	defer shutdown(true)
	if _, err := e.Solve(seeds); err != nil {
		b.Fatal(err)
	}
	var frames, writes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Solve(seeds)
		if err != nil {
			b.Fatal(err)
		}
		net := res.Stats.Net
		frames += net.FramesOut
		writes += net.FlushesSmall + net.FlushesMid + net.FlushesLarge
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
