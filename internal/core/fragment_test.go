package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// tieTestGraph builds a connected random graph with a tiny weight range so
// cross-edge weight ties are common: the property tests below only prove
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

// TestFragmentMatchesReplicatedProperty is the determinism property test:
// over random tie-heavy graphs × rank counts × terminal counts, the
// fragment merge must return a Result byte-identical to the replicated
// oracle (which runs sequential mst.Kruskal over the full cross table) —
// same tree, same order, same totals.
func TestFragmentMatchesReplicatedProperty(t *testing.T) {
	for _, ranks := range []int{1, 3, 4} {
		for trial := 0; trial < 4; trial++ {
			g := tieTestGraph(int64(100*ranks+trial), 80+7*trial)
			rng := rand.New(rand.NewSource(int64(trial)))
			opts := Options{Ranks: ranks, Queue: rt.QueuePriority, Partition: PartitionArcBlock}

			opts.MSTMode = MSTFragment
			frag, err := NewEngine(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.MSTMode = MSTReplicated
			opts.MST = MSTKruskal
			repl, err := NewEngine(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 5, 16} {
				seeds := pickEngineSeeds(rng, g.NumVertices(), k)
				label := fmt.Sprintf("ranks=%d/trial=%d/k=%d", ranks, trial, k)
				want, err := repl.Solve(seeds)
				if err != nil {
					t.Fatalf("%s: replicated: %v", label, err)
				}
				got, err := frag.Solve(seeds)
				if err != nil {
					t.Fatalf("%s: fragment: %v", label, err)
				}
				assertResultsEquivalent(t, label, got, want)
				if !got.MSTFragment || want.MSTFragment {
					t.Fatalf("%s: MSTFragment flags: frag=%v repl=%v", label, got.MSTFragment, want.MSTFragment)
				}
				if got.MSTRounds < 1 {
					t.Fatalf("%s: fragment merge reported %d rounds", label, got.MSTRounds)
				}
				if got.DistGraphEdges != want.DistGraphEdges {
					t.Fatalf("%s: dist-graph edges %d != %d", label, got.DistGraphEdges, want.DistGraphEdges)
				}
			}
			frag.Close()
			repl.Close()
		}
	}
}

// TestFragmentModeMatrix sweeps the fragment merge across the solver
// configuration space on loopback — partition kinds × delegates × BSP ×
// query modes — asserting Results identical to the replicated oracle.
// Prize queries downgrade to the replicated path per query, so they pin
// the mode-mixing seam rather than the merge itself.
func TestFragmentModeMatrix(t *testing.T) {
	g := clusteredTestGraph(29, 3, 40)
	rng := rand.New(rand.NewSource(92))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 9)
	groups := pickClusterGroups(rng, 40, []int{3, 3, 3})
	penalties := make([]graph.Dist, len(seeds))
	for i := range penalties {
		penalties[i] = graph.Dist(rng.Intn(40) + 1)
	}
	specs := []QuerySpec{
		{Mode: ModeTree, Seeds: seeds},
		{Mode: ModeForest, Groups: groups},
		{Mode: ModePrize, Seeds: seeds, Penalties: penalties},
	}
	for _, kind := range []PartitionKind{PartitionBlock, PartitionHash, PartitionArcBlock} {
		for _, threshold := range []int{0, 6} {
			for _, bsp := range []bool{false, true} {
				label := fmt.Sprintf("%v/thr=%d/bsp=%v", kind, threshold, bsp)
				opts := Options{
					Ranks:             4,
					Queue:             rt.QueuePriority,
					Partition:         kind,
					DelegateThreshold: threshold,
					BSP:               bsp,
				}
				opts.MSTMode = MSTFragment
				frag, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.MSTMode = MSTReplicated
				repl, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range specs {
					want, err := repl.SolveSpec(spec)
					if err != nil {
						t.Fatalf("%s/%s: replicated: %v", label, spec.Mode, err)
					}
					got, err := frag.SolveSpec(spec)
					if err != nil {
						t.Fatalf("%s/%s: fragment: %v", label, spec.Mode, err)
					}
					if !reflect.DeepEqual(got.Tree, want.Tree) {
						t.Fatalf("%s/%s: trees differ\nfragment   %v\nreplicated %v", label, spec.Mode, got.Tree, want.Tree)
					}
					if got.TotalDistance != want.TotalDistance {
						t.Fatalf("%s/%s: total %d != %d", label, spec.Mode, got.TotalDistance, want.TotalDistance)
					}
					if wantFrag := spec.Mode != ModePrize; got.MSTFragment != wantFrag {
						t.Fatalf("%s/%s: MSTFragment=%v, want %v", label, spec.Mode, got.MSTFragment, wantFrag)
					}
				}
				frag.Close()
				repl.Close()
			}
		}
	}
}

// TestFragmentAutoDefaults pins the auto resolution: a plain sharded
// loopback engine runs the fragment merge without being asked, and a
// GlobalCSR engine silently keeps the replicated reference path.
func TestFragmentAutoDefaults(t *testing.T) {
	g := engineTestGraph(31, 90)
	rng := rand.New(rand.NewSource(7))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 6)

	e, err := NewEngine(g, Options{Ranks: 3, Queue: rt.QueuePriority})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.MSTMode() != MSTFragment {
		t.Fatalf("sharded auto resolved to %v, want fragment", e.MSTMode())
	}
	res, err := e.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MSTFragment || res.MSTRounds < 1 {
		t.Fatalf("auto solve: MSTFragment=%v rounds=%d", res.MSTFragment, res.MSTRounds)
	}
	if res.CrossTableBytes != 0 {
		t.Fatalf("loopback solve reported %d cross-table wire bytes", res.CrossTableBytes)
	}

	ref, err := NewEngine(g, Options{Ranks: 3, Queue: rt.QueuePriority, GlobalCSR: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if ref.MSTMode() != MSTReplicated {
		t.Fatalf("GlobalCSR auto resolved to %v, want replicated", ref.MSTMode())
	}
	refRes, err := ref.Solve(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.MSTFragment {
		t.Fatal("GlobalCSR solve claims the fragment merge ran")
	}
	if !reflect.DeepEqual(res.Tree, refRes.Tree) {
		t.Fatalf("fragment tree differs from GlobalCSR reference\nfragment %v\nglobal   %v", res.Tree, refRes.Tree)
	}
}

// TestFragmentGlobalCSRRejected pins the configuration guard: the fragment
// merge has no meaning on the replicated reference engine.
func TestFragmentGlobalCSRRejected(t *testing.T) {
	g := engineTestGraph(33, 40)
	_, err := NewEngine(g, Options{Ranks: 2, Queue: rt.QueuePriority, GlobalCSR: true, MSTMode: MSTFragment})
	if err == nil || !strings.Contains(err.Error(), "MSTFragment") {
		t.Fatalf("GlobalCSR+MSTFragment: err=%v, want MSTFragment rejection", err)
	}
}

// TestFragmentTCPWireBytes is the perf acceptance test on a real TCP
// fleet at high terminal count: the fragment merge must move strictly
// fewer phase 3–4 wire bytes than the replicated gather (whose payload is
// O(k²) entries to every rank) while returning the identical Result.
func TestFragmentTCPWireBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("spins two 4-worker TCP fleets at k=512")
	}
	g := engineTestGraph(41, 1600)
	rng := rand.New(rand.NewSource(55))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 512)
	opts := Options{Ranks: 4, Queue: rt.QueuePriority, Partition: PartitionArcBlock}

	opts.MSTMode = MSTFragment
	frag, fragWait := startTCPEngine(t, g, opts, 4)
	defer fragWait()
	defer frag.Close()
	opts.MSTMode = MSTReplicated
	repl, replWait := startTCPEngine(t, g, opts, 4)
	defer replWait()
	defer repl.Close()

	want, err := repl.Solve(seeds)
	if err != nil {
		t.Fatalf("replicated: %v", err)
	}
	got, err := frag.Solve(seeds)
	if err != nil {
		t.Fatalf("fragment: %v", err)
	}
	assertResultsEquivalent(t, "tcp-k512", got, want)
	if !got.MSTFragment || got.MSTRounds < 1 || got.FragmentMsgs == 0 {
		t.Fatalf("fragment solve: MSTFragment=%v rounds=%d msgs=%d", got.MSTFragment, got.MSTRounds, got.FragmentMsgs)
	}
	if got.CrossTableBytes == 0 || want.CrossTableBytes == 0 {
		t.Fatalf("cross-table bytes unreported: fragment=%d replicated=%d", got.CrossTableBytes, want.CrossTableBytes)
	}
	if got.CrossTableBytes >= want.CrossTableBytes {
		t.Fatalf("fragment moved %d cross-table bytes, replicated %d — no reduction",
			got.CrossTableBytes, want.CrossTableBytes)
	}
	t.Logf("k=512 cross-table wire bytes: fragment=%d replicated=%d (%.1fx)",
		got.CrossTableBytes, want.CrossTableBytes,
		float64(want.CrossTableBytes)/float64(got.CrossTableBytes))
}
