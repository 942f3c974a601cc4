package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
)

// TestTCPBackendParallelFrontierMatchesLoopback extends the tentpole's
// equivalence property across the wire: a rankd fleet draining buckets in
// parallel (the Setup ships the unresolved frontier request; each worker
// resolves it against its own hosted-rank count) returns Results
// byte-identical to a serial-frontier loopback oracle, for async and BSP on
// both delegate settings, across tree, forest and prize queries. The
// frontier counters must come back in the WorkerDone frames — nonzero
// drains prove the fleet really ran the parallel path, not a silent serial
// fallback.
func TestTCPBackendParallelFrontierMatchesLoopback(t *testing.T) {
	g := clusteredTestGraph(131, 3, 40)
	rng := rand.New(rand.NewSource(134))
	specs := frontierTestSpecs(rng, 3, 40)
	thresholds := []int{0, 6}
	if testing.Short() {
		thresholds = []int{6}
	}
	for _, threshold := range thresholds {
		for _, bsp := range []bool{false, true} {
			label := fmt.Sprintf("thr=%d/bsp=%v", threshold, bsp)
			t.Run(label, func(t *testing.T) {
				opts := Options{
					Ranks:             4,
					Queue:             rt.QueueBucket,
					BucketDelta:       32,
					Partition:         PartitionArcBlock,
					DelegateThreshold: threshold,
					BSP:               bsp,
					Frontier:          FrontierSerial,
				}
				loop, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer loop.Close()
				popts := opts
				popts.Frontier = FrontierParallel
				// Four single-rank workers: each resolves the whole budget
				// onto its one hosted rank.
				popts.FrontierWorkers = 4
				tcp, wait := startTCPEngine(t, g, popts, 4)
				defer wait()
				defer tcp.Close()
				for si, spec := range specs {
					want, err := loop.SolveSpec(spec)
					if err != nil {
						t.Fatalf("spec %d: loopback: %v", si, err)
					}
					got, err := tcp.SolveSpec(spec)
					if err != nil {
						t.Fatalf("spec %d: tcp: %v", si, err)
					}
					sl := fmt.Sprintf("%s/spec=%d", label, si)
					assertResultsEquivalent(t, sl, got, want)
					if got.Frontier.BucketsDrained == 0 {
						t.Fatalf("%s: tcp fleet reported zero parallel drains", sl)
					}
					if got.Frontier.Workers != 4 {
						t.Fatalf("%s: fleet resolved %d frontier workers per rank, want 4", sl, got.Frontier.Workers)
					}
					if got.Frontier.Messages == 0 || got.Frontier.WallNs == 0 {
						t.Fatalf("%s: frontier counters missing from the WorkerDone tail: %+v", sl, got)
					}
					if want.Frontier.BucketsDrained != 0 {
						t.Fatalf("%s: serial loopback oracle reported %d parallel drains", sl, want.Frontier.BucketsDrained)
					}
					if got.Net.FramesOut == 0 {
						t.Fatalf("%s: tcp solve reports no transport traffic", sl)
					}
				}
			})
		}
	}
}

// TestChaosFrontierParallel runs the fault-tolerance contract on top of the
// parallel frontier: a recovering 2-worker fleet draining buckets across
// per-rank worker pools takes one deterministic mid-solve fault, heals, and
// still answers byte-identically to an undisturbed loopback run — then
// answers again on the healed fleet, still draining in parallel. This keeps
// the tentpole inside the chaos envelope PR 9 established for the serial
// path.
func TestChaosFrontierParallel(t *testing.T) {
	g := engineTestGraph(17, 120)
	rng := rand.New(rand.NewSource(94))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 7)

	frontierOpts := func() Options {
		return Options{
			Ranks:             4,
			Queue:             rt.QueueBucket,
			BucketDelta:       32,
			Partition:         PartitionArcBlock,
			DelegateThreshold: 6,
			Frontier:          FrontierParallel,
			FrontierWorkers:   8, // 2 workers host 2 ranks each: 4 per rank
		}
	}
	loop, err := NewEngine(g, frontierOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := loop.Solve(seeds)
	loop.Close()
	if err != nil {
		t.Fatalf("loopback reference: %v", err)
	}

	// Probe the per-solve transport op count with an inject-nothing shim on
	// this exact fleet shape, so the fault triggers land mid-solve.
	before := transport.ChaosOpsTotal()
	{
		opts := frontierOpts()
		opts.Recover = true
		opts.RejoinWait = 10 * time.Second
		e, shutdown := startChaosFleet(t, g, opts, 2, func(w int) WorkerConfig {
			cfg := WorkerConfig{RejoinWait: 10 * time.Second}
			if w == 0 {
				cfg.Chaos = &transport.ChaosConfig{Seed: 1}
			}
			return cfg
		})
		res, err := solveWithDeadline(t, "probe", e, seeds)
		if err != nil {
			t.Fatalf("probe solve: %v", err)
		}
		if res.Frontier.BucketsDrained == 0 {
			t.Fatal("probe fleet never drained a bucket in parallel")
		}
		shutdown(true)
	}
	ops := transport.ChaosOpsTotal() - before
	if ops < 4 {
		t.Fatalf("probe observed only %d transport ops", ops)
	}

	kinds := []string{transport.ChaosPeerDrop, transport.ChaosCoordDrop, transport.ChaosTruncate}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			opts := frontierOpts()
			opts.Recover = true
			opts.RejoinWait = 15 * time.Second
			e, shutdown := startChaosFleet(t, g, opts, 2, func(w int) WorkerConfig {
				cfg := WorkerConfig{RejoinWait: 15 * time.Second}
				if w == 0 {
					cfg.Chaos = &transport.ChaosConfig{Kind: kind, Seed: 2, After: ops / 2}
				}
				return cfg
			})
			got, err := solveWithDeadline(t, kind+"/faulted", e, seeds)
			if err != nil {
				t.Fatalf("faulted solve not recovered: %v", err)
			}
			assertResultsEquivalent(t, kind+"/faulted", got, want)
			if got.Frontier.BucketsDrained == 0 {
				t.Fatalf("%s: requeued solve fell back to serial draining", kind)
			}
			again, err := solveWithDeadline(t, kind+"/healed", e, seeds)
			if err != nil {
				t.Fatalf("solve on healed fleet: %v", err)
			}
			assertResultsEquivalent(t, kind+"/healed", again, want)
			if again.Frontier.BucketsDrained == 0 {
				t.Fatalf("%s: healed fleet fell back to serial draining", kind)
			}
			fs := e.FaultStats()
			shutdown(true)
			if fs.Detected < 1 || fs.Heals < 1 {
				t.Fatalf("injected a %s fault but the session never healed: %+v", kind, fs)
			}
		})
	}
}
