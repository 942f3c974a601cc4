package core

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// tieTestGraph builds a connected random graph with a tiny weight range so
// cross-edge weight ties are common: the reference comparison only proves
// anything if the (D, seedKey) tie-break is actually exercised.
func tieTestGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(3))+1)
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(3))+1)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestFragmentTCPWireBytes runs the fragment merge of both routes on a real
// TCP fleet at high terminal count: a tree query, and a prize query over the
// same terminals whose penalties are too large to skip any of them, so its
// records all go to rank 0. Same global table, so the same tree, the same
// |E'₁| and the same Borůvka round sequence; only the phase 3–4 wire bytes
// differ, and both are logged.
func TestFragmentTCPWireBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a 4-worker TCP fleet at k=512")
	}
	g := engineTestGraph(41, 1600)
	rng := rand.New(rand.NewSource(55))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 512)
	penalties := make([]graph.Dist, len(seeds))
	for i := range penalties {
		penalties[i] = 1 << 40
	}
	e, wait := startTCPEngine(t, g, Options{Ranks: 4, Queue: rt.QueuePriority, Partition: PartitionArcBlock}, 4)
	defer wait()
	defer e.Close()

	want, err := e.SolveSpec(QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: penalties})
	if err != nil {
		t.Fatalf("prize: %v", err)
	}
	got, err := e.Solve(seeds)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	assertResultsEquivalent(t, "tcp-k512", got, want)
	if len(want.Skipped) != 0 {
		t.Fatalf("prize solve skipped %v, want every terminal kept", want.Skipped)
	}
	if got.MSTRounds < 1 || got.FragmentMsgs == 0 {
		t.Fatalf("tree solve: rounds=%d msgs=%d", got.MSTRounds, got.FragmentMsgs)
	}
	if want.MSTRounds != got.MSTRounds || want.DistGraphEdges != got.DistGraphEdges {
		t.Fatalf("prize solve: rounds=%d |E'1|=%d, tree solve: rounds=%d |E'1|=%d",
			want.MSTRounds, want.DistGraphEdges, got.MSTRounds, got.DistGraphEdges)
	}
	if got.CrossTableBytes == 0 || want.CrossTableBytes == 0 {
		t.Fatalf("cross-table bytes unreported: tree=%d prize=%d", got.CrossTableBytes, want.CrossTableBytes)
	}
	t.Logf("k=512 cross-table wire bytes: tree=%d prize=%d", got.CrossTableBytes, want.CrossTableBytes)
}
