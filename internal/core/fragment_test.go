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

// TestFragmentTCPWireBytes is the perf acceptance test on a real TCP fleet
// at high terminal count: the fragment merge must move strictly fewer phase
// 3–4 wire bytes than the gather (whose payload is O(k²) entries to every
// rank) over the same cross-edge table. One engine runs both: a tree query,
// and a prize query over the same terminals whose penalties are too large
// to skip any of them — same table, same tree, but gathered.
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
	if len(want.Skipped) != 0 || want.MSTFragment {
		t.Fatalf("prize solve: skipped=%v MSTFragment=%v, want a gather that keeps every terminal", want.Skipped, want.MSTFragment)
	}
	if !got.MSTFragment || got.MSTRounds < 1 || got.FragmentMsgs == 0 {
		t.Fatalf("tree solve: MSTFragment=%v rounds=%d msgs=%d", got.MSTFragment, got.MSTRounds, got.FragmentMsgs)
	}
	if got.CrossTableBytes == 0 || want.CrossTableBytes == 0 {
		t.Fatalf("cross-table bytes unreported: fragment=%d gather=%d", got.CrossTableBytes, want.CrossTableBytes)
	}
	if got.CrossTableBytes >= want.CrossTableBytes {
		t.Fatalf("fragment moved %d cross-table bytes, the gather %d — no reduction",
			got.CrossTableBytes, want.CrossTableBytes)
	}
	t.Logf("k=512 cross-table wire bytes: fragment=%d gather=%d (%.1fx)",
		got.CrossTableBytes, want.CrossTableBytes,
		float64(want.CrossTableBytes)/float64(got.CrossTableBytes))
}
