package core

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// frontierTestSpecs builds one query per mode — tree, forest, prize — over
// a clustered graph of the given cluster width (forest groups must each be
// connected in the group-filtered distance graph, which the one-group-per-
// cluster layout guarantees).
func frontierTestSpecs(rng *rand.Rand, clusters, perCluster int) []QuerySpec {
	n := clusters * perCluster
	seeds := pickEngineSeeds(rng, n, 8)
	groups := pickClusterGroups(rng, perCluster, []int{3, 4, 2})
	prize := pickEngineSeeds(rng, n, 6)
	penalties := make([]graph.Dist, len(prize))
	for i := range penalties {
		penalties[i] = graph.Dist(5 + rng.Intn(400))
	}
	return []QuerySpec{
		{Mode: ModeTree, Seeds: seeds},
		{Mode: ModeForest, Groups: groups},
		{Mode: ModePrize, Seeds: prize, Penalties: penalties},
	}
}

// TestParallelFrontierMatchesSerial is the tentpole's equivalence property:
// for every partition kind × delegate threshold × async/BSP × query mode ×
// worker count, a parallel-frontier solve returns Results byte-identical to
// the serial-drain oracle on the same bucket-queue configuration. It also
// asserts the parallel engines actually drained buckets in parallel, so the
// equivalence is never vacuous.
func TestParallelFrontierMatchesSerial(t *testing.T) {
	g := clusteredTestGraph(131, 3, 40)
	rng := rand.New(rand.NewSource(132))
	specs := frontierTestSpecs(rng, 3, 40)
	workerCounts := []int{1, 2, 8}
	partitions := []PartitionKind{PartitionBlock, PartitionHash, PartitionArcBlock}
	if testing.Short() {
		workerCounts = []int{2}
		partitions = []PartitionKind{Default(4).Partition}
	}
	var drained int64
	for _, kind := range partitions {
		for _, threshold := range []int{0, 6} {
			for _, bsp := range []bool{false, true} {
				base := Options{
					Ranks:             4,
					Queue:             rt.QueueBucket,
					BucketDelta:       32,
					Partition:         kind,
					DelegateThreshold: threshold,
					BSP:               bsp,
					Frontier:          FrontierSerial,
				}
				serial, err := NewEngine(g, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range workerCounts {
					popts := base
					popts.Frontier = FrontierParallel
					// Per-process budget: every rank gets exactly `workers`.
					popts.FrontierWorkers = workers * base.Ranks
					parallel, err := NewEngine(g, popts)
					if err != nil {
						serial.Close()
						t.Fatal(err)
					}
					if got := parallel.Frontier(); got != FrontierParallel {
						t.Fatalf("resolved frontier = %v, want parallel", got)
					}
					for si, spec := range specs {
						want, err := serial.SolveSpec(spec)
						if err != nil {
							t.Fatalf("%v thr=%d bsp=%v spec=%d: serial: %v", kind, threshold, bsp, si, err)
						}
						got, err := parallel.SolveSpec(spec)
						if err != nil {
							t.Fatalf("%v thr=%d bsp=%v spec=%d w=%d: parallel: %v", kind, threshold, bsp, si, workers, err)
						}
						label := kind.String()
						assertResultsEquivalent(t, label, got, want)
						if want.Frontier.BucketsDrained != 0 {
							t.Fatalf("%s: serial solve reported %d parallel drains", label, want.Frontier.BucketsDrained)
						}
						if got.Frontier.Workers != workers {
							t.Fatalf("%s: resolved workers = %d, want %d", label, got.Frontier.Workers, workers)
						}
						drained += got.Frontier.BucketsDrained
					}
					parallel.Close()
				}
				serial.Close()
			}
		}
	}
	if drained == 0 {
		t.Fatal("no parallel bucket drains across the whole matrix — the parallel path never ran")
	}
}

// TestFrontierAutoResolution pins the auto policy: parallel only when the
// bucket discipline is active and the per-rank budget exceeds one worker;
// explicit parallel is rejected without the bucket queue.
func TestFrontierAutoResolution(t *testing.T) {
	g := engineTestGraph(133, 120)
	cases := []struct {
		name string
		opts Options
		want FrontierMode
	}{
		{"auto+bucket+budget", Options{Ranks: 2, Queue: rt.QueueBucket, FrontierWorkers: 8}, FrontierParallel},
		{"auto+bucket+no-budget", Options{Ranks: 2, Queue: rt.QueueBucket, FrontierWorkers: 2}, FrontierSerial},
		{"auto+priority", Options{Ranks: 2, Queue: rt.QueuePriority, FrontierWorkers: 8}, FrontierSerial},
		{"explicit serial", Options{Ranks: 2, Queue: rt.QueueBucket, FrontierWorkers: 8, Frontier: FrontierSerial}, FrontierSerial},
		{"explicit parallel 1 worker", Options{Ranks: 2, Queue: rt.QueueBucket, FrontierWorkers: 1, Frontier: FrontierParallel}, FrontierParallel},
	}
	for _, tc := range cases {
		e, err := NewEngine(g, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := e.Frontier(); got != tc.want {
			t.Errorf("%s: resolved %v, want %v", tc.name, got, tc.want)
		}
		e.Close()
	}
	if _, err := NewEngine(g, Options{Ranks: 2, Queue: rt.QueuePriority, Frontier: FrontierParallel}); err == nil {
		t.Error("FrontierParallel without the bucket queue was accepted")
	}
}
