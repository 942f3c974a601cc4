package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// startTCPEngine builds a BackendTCP engine whose rankd workers run as
// goroutines in this process but speak the real wire protocol over real
// localhost TCP connections — the same code path cmd/rankd executes.
// Returns the engine and a wait function that asserts every worker exited
// cleanly after Close.
func startTCPEngine(t *testing.T, g *graph.Graph, opts Options, workers int) (*Engine, func()) {
	t.Helper()
	opts.Backend = BackendTCP
	opts.Workers = workers
	opts.ListenAddr = "127.0.0.1:0"
	var wg sync.WaitGroup
	errs := make([]error, workers)
	opts.OnListen = func(addr string) {
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = RunWorker(addr, WorkerConfig{})
			}(i)
		}
	}
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatalf("tcp engine: %v", err)
	}
	return e, func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	}
}

// tcpEquivSeedSets are the three tree queries every TCP-equivalence cell
// asks of one warm session.
func tcpEquivSeedSets(g *graph.Graph) [][]graph.VID {
	rng := rand.New(rand.NewSource(18))
	return [][]graph.VID{
		pickEngineSeeds(rng, g.NumVertices(), 3),
		pickEngineSeeds(rng, g.NumVertices(), 7),
		pickEngineSeeds(rng, g.NumVertices(), 13),
	}
}

// checkTCPMatchesLoopback runs seedSets on a loopback engine and on a
// 4-worker rankd fleet built with the same opts, and requires
// solver-output fields byte-identical and traffic on the wire only for TCP.
func checkTCPMatchesLoopback(t *testing.T, g *graph.Graph, seedSets [][]graph.VID, opts Options, label string) {
	t.Helper()
	loop, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	tcp, wait := startTCPEngine(t, g, opts, 4)
	defer wait()
	defer tcp.Close()
	for _, seeds := range seedSets {
		want, err := loop.Solve(seeds)
		if err != nil {
			t.Fatalf("loopback: %v", err)
		}
		got, err := tcp.Solve(seeds)
		if err != nil {
			t.Fatalf("tcp: %v", err)
		}
		assertResultsEquivalent(t, label, got, want)
		if got.Net.FramesOut == 0 || got.Net.BytesOut == 0 {
			t.Fatalf("%s: tcp solve reports no transport traffic: %+v", label, got.Net)
		}
		if want.Net.FramesOut != 0 {
			t.Fatalf("%s: loopback solve reports transport traffic: %+v", label, want.Net)
		}
	}
}

// TestTCPBackendMatchesLoopback is the transport-equivalence acceptance
// test: for partition kinds × batch sizes (the runtime's 64, one message per
// frame, an odd five — Setup ships the size to every worker) × {async, BSP},
// a 4-worker rankd cluster driven over TCP returns Results byte-identical
// (solver-output fields) to the in-process loopback backend — and both
// match across repeated queries on the same warm session.
func TestTCPBackendMatchesLoopback(t *testing.T) {
	g := engineTestGraph(17, 120)
	seedSets := tcpEquivSeedSets(g)
	kinds := []PartitionKind{PartitionBlock, PartitionArcBlock}
	batches := []int{0, 1, 5}
	if testing.Short() { // the full matrix spins up 12 worker fleets; -short keeps two
		kinds = []PartitionKind{Default(4).Partition}
		batches = []int{1}
	}
	for _, kind := range kinds {
		for _, batch := range batches {
			for _, bsp := range []bool{false, true} {
				label := fmt.Sprintf("%v/batch=%d/bsp=%v", kind, batch, bsp)
				t.Run(label, func(t *testing.T) {
					checkTCPMatchesLoopback(t, g, seedSets, Options{
						Ranks:     4,
						Queue:     rt.QueuePriority,
						Partition: kind,
						BatchSize: batch,
						BSP:       bsp,
					}, label)
				})
			}
		}
	}
}

// TestTCPBackendFIFOMatchesLoopback is the same property under the other
// queue discipline: Setup ships Queue = FIFO, every worker floods
// first-in-first-out, and the fleet still answers byte for byte as the
// loopback engine does, async and BSP, at every batch size of the test above.
func TestTCPBackendFIFOMatchesLoopback(t *testing.T) {
	g := engineTestGraph(17, 120)
	seedSets := tcpEquivSeedSets(g)
	batches := []int{0, 1, 5}
	if testing.Short() {
		batches = []int{1}
	}
	for _, batch := range batches {
		for _, bsp := range []bool{false, true} {
			label := fmt.Sprintf("batch=%d/bsp=%v", batch, bsp)
			t.Run(label, func(t *testing.T) {
				checkTCPMatchesLoopback(t, g, seedSets, Options{
					Ranks:     4,
					Queue:     rt.QueueFIFO,
					Partition: Default(4).Partition,
					BatchSize: batch,
					BSP:       bsp,
				}, "fifo/"+label)
			})
		}
	}
}

// TestTCPBackendSingleWorker covers the degenerate fleet: one worker
// hosting every rank still crosses the coordinator for collectives and
// termination.
func TestTCPBackendSingleWorker(t *testing.T) {
	g := engineTestGraph(23, 90)
	rng := rand.New(rand.NewSource(24))
	opts := Options{Ranks: 3, Queue: rt.QueuePriority, Partition: PartitionArcBlock}
	loop, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	tcp, wait := startTCPEngine(t, g, opts, 1)
	defer wait()
	defer tcp.Close()
	for k := 2; k <= 6; k += 2 {
		seeds := pickEngineSeeds(rng, g.NumVertices(), k)
		want, err := loop.Solve(seeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tcp.Solve(seeds)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEquivalent(t, fmt.Sprintf("k=%d", k), got, want)
	}
}

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
	e, wait := startTCPEngine(t, g, opts, 2)
	defer wait()
	defer e.Close()

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
		e, wait := startTCPEngine(t, g, Default(2), 2)
		for i := 0; i < 3; i++ {
			got, err := e.Solve([]graph.VID{0, 8})
			if err != nil {
				t.Fatalf("round %d solve %d: %v", round, i, err)
			}
			assertResultsEquivalent(t, "tiny tcp", got, want)
		}
		e.Close()
		wait()
	}
}
