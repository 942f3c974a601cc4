package core

import (
	"net"
	"strings"
	"testing"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// TestWorkerRejectsOutOfRangeSetup pins the Setup boundary: a worker handed
// an enum byte it does not know, a rank range that is empty, descending or
// outside the session, partition bounds that do not fit the graph, or shard
// columns that do not describe its range (short or decreasing offsets, a
// target outside the graph) answers with an Abort naming the offending values and
// exits with the same error — it never substitutes a default, indexes a
// table past its end or sizes an allocation by a bad target.
func TestWorkerRejectsOutOfRangeSetup(t *testing.T) {
	valid := wire.Setup{
		Ranks: 1, NumVertices: 2, RankLo: []int64{0, 1}, PeerAddrs: []string{"127.0.0.1:1"},
		Queue:  uint8(rt.QueuePriority),
		Bounds: []graph.VID{0, 2},
		Shards: []wire.ShardSlice{{Rank: 0, Offsets: []int64{0, 1, 2}, Targets: []graph.VID{1, 0},
			Weights: []uint32{5, 5}}},
	}
	// slice mutates the valid setup's one shard slice, on a copy.
	slice := func(mutate func(*wire.ShardSlice)) func(*wire.Setup) {
		return func(s *wire.Setup) {
			sl := s.Shards[0]
			sl.Offsets = append([]int64(nil), sl.Offsets...)
			sl.Targets = append([]graph.VID(nil), sl.Targets...)
			mutate(&sl)
			s.Shards = []wire.ShardSlice{sl}
		}
	}
	const enum, geometry = "setup enum out of range", "inconsistent setup geometry"
	for _, tc := range []struct {
		name   string
		mutate func(*wire.Setup)
		want   string
	}{
		{"queue", func(s *wire.Setup) { s.Queue = uint8(rt.QueuePriority) + 1 }, enum},
		{"ranks-empty", func(s *wire.Setup) {
			s.RankLo, s.Shards, s.Queue = []int64{0, 0}, nil, uint8(rt.QueuePriority)
		}, geometry},
		{"ranks-beyond-session", func(s *wire.Setup) {
			s.RankLo = []int64{5, 6}
			s.Shards = []wire.ShardSlice{{Rank: 5, Offsets: []int64{0, 0, 0}}}
		}, geometry},
		{"ranks-descending", func(s *wire.Setup) { s.RankLo = []int64{1, 0} }, geometry},
		{"bounds-vertex-count", func(s *wire.Setup) { s.Bounds = []graph.VID{0, 3} }, geometry},
		{"bounds-missing", func(s *wire.Setup) { s.Bounds = nil }, geometry},
		{"target-negative", slice(func(sl *wire.ShardSlice) { sl.Targets[0] = -1 }), geometry},
		{"target-huge", slice(func(sl *wire.ShardSlice) { sl.Targets[0] = 1<<31 - 2 }), geometry},
		{"offsets-short", slice(func(sl *wire.ShardSlice) { sl.Offsets = sl.Offsets[:2] }), geometry},
		{"offsets-decreasing", slice(func(sl *wire.ShardSlice) { sl.Offsets[1] = 3 }), geometry},
		{"offsets-past-weights", slice(func(sl *wire.ShardSlice) { sl.Offsets[2] = 3 }), geometry},
		{"targets-without-weights", slice(func(sl *wire.ShardSlice) { sl.Targets = append(sl.Targets, 1) }), geometry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			workerErr := make(chan error, 1)
			go func() { workerErr <- RunWorker(ln.Addr().String(), WorkerConfig{DialTimeout: 5 * time.Second}) }()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if frame, err := wire.ReadFrame(conn, nil); err != nil || frame[0] != wire.FrameHello {
				t.Fatalf("worker opening: %v %v", frame, err)
			}
			setup := valid
			tc.mutate(&setup)
			if err := wire.WriteFrame(conn, wire.EncodeSetup(nil, setup)); err != nil {
				t.Fatal(err)
			}
			frame, err := wire.ReadFrame(conn, nil)
			if err != nil || frame[0] != wire.FrameAbort {
				t.Fatalf("worker reply: frame %v err %v, want abort", frame, err)
			}
			ab, err := wire.DecodeAbort(frame[1:])
			if err != nil || !strings.Contains(ab.Reason, tc.want) {
				t.Fatalf("abort reason %q (%v)", ab.Reason, err)
			}
			if err := <-workerErr; err == nil || err.Error() != ab.Reason {
				t.Fatalf("worker exit %v, want the aborted reason %q", err, ab.Reason)
			}
		})
	}
}

// TestWorkerRejectsInvalidSpec pins the SolveSpec boundary: a spec that
// would not pass CanonicalSpec reaches the coordinator as the worker's
// Abort carrying the validation error, not as a rank panic.
func TestWorkerRejectsInvalidSpec(t *testing.T) {
	g := engineTestGraph(7, 30)
	for _, tc := range []struct {
		name string
		spec wire.SolveSpec
		want string
	}{
		{"prize-penalty-count", wire.SolveSpec{Mode: uint8(ModePrize), Seeds: []graph.VID{1, 2, 3}, Penalties: []int64{5}}, "one penalty per seed"},
		{"unknown-mode", wire.SolveSpec{Mode: 9, Seeds: []graph.VID{1, 2}}, "unknown query mode"},
		{"seed-out-of-range", wire.SolveSpec{Seeds: []graph.VID{1, graph.VID(g.NumVertices())}}, "out of range"},
		{"duplicate-seed", wire.SolveSpec{Seeds: []graph.VID{4, 4}}, "more than once"},
		{"forest-with-seeds", wire.SolveSpec{Mode: uint8(ModeForest), Seeds: []graph.VID{1, 2}}, "groups, not seeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Ranks: 2, Queue: rt.QueuePriority, Backend: BackendTCP, Workers: 1}
			workerErr := make(chan error, 1)
			opts.OnListen = func(addr string) {
				go func() { workerErr <- RunWorker(addr, WorkerConfig{}) }()
			}
			e, err := NewEngine(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tc.spec.QueryID = 1
			_, err = e.cluster.hub.SolveSpec(tc.spec)
			if err == nil || !strings.Contains(err.Error(), "invalid spec") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("coordinator saw %v, want the worker's validation error (%q)", err, tc.want)
			}
			if strings.Contains(err.Error(), "panic") {
				t.Fatalf("invalid spec surfaced as a rank panic: %v", err)
			}
			if werr := <-workerErr; werr == nil || !strings.Contains(werr.Error(), tc.want) {
				t.Fatalf("worker exit %v, want %q", werr, tc.want)
			}
		})
	}
}
