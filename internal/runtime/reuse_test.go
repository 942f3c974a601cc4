package runtime

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// chainRun executes one fixed forwarding-chain traversal on c and returns
// the number of visits processed (15 when the run is clean).
func chainRun(c *Comm) int64 {
	const n = 32
	var total atomic.Int64
	c.Run(func(r *Rank) {
		st := r.Traverse(&Traversal{
			Ordered: true,
			Visit: func(r *Rank, m Msg) {
				if m.Dist > 0 {
					r.Send(Msg{Target: (m.Target + 7) % n, Dist: m.Dist - 1})
				}
			},
			Init: func(r *Rank) {
				if r.ID() == 0 {
					r.Send(Msg{Target: 0, Dist: 9})
					r.Send(Msg{Target: 5, Dist: 4})
				}
			},
		})
		total.Add(st.Processed)
	})
	return total.Load()
}

func TestCommReusedAcrossRuns(t *testing.T) {
	for _, q := range []QueueKind{QueueFIFO, QueuePriority} {
		c := newComm(t, 32, 4, q)
		for run := 0; run < 10; run++ {
			if got := chainRun(c); got != 15 {
				t.Fatalf("queue=%v run %d: processed %d, want 15", q, run, got)
			}
		}
	}
}

func TestPersistentWorkersReuse(t *testing.T) {
	c := newComm(t, 32, 4, QueuePriority)
	c.Start()
	c.Start() // idempotent
	defer c.Close()

	before := runtime.NumGoroutine()
	for run := 0; run < 20; run++ {
		if got := chainRun(c); got != 15 {
			t.Fatalf("run %d: processed %d, want 15", run, got)
		}
	}
	after := runtime.NumGoroutine()
	// Persistent mode must not leak a goroutine per run; allow slack for
	// unrelated runtime noise.
	if after > before+4 {
		t.Fatalf("goroutines grew %d -> %d across pinned runs", before, after)
	}
}

func TestCloseIsIdempotentAndRunStillWorks(t *testing.T) {
	c := newComm(t, 32, 2, QueueFIFO)
	c.Start()
	c.Close()
	c.Close()
	// After Close the Comm falls back to spawn-per-run mode.
	if got := chainRun(c); got != 15 {
		t.Fatalf("post-Close run: processed %d, want 15", got)
	}
}

func TestCommReuseAfterPanic(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		c := newComm(t, 32, 4, QueueFIFO)
		if persistent {
			c.Start()
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic to propagate")
				}
			}()
			c.Run(func(r *Rank) {
				if r.ID() == 1 {
					panic("rank 1 exploded")
				}
				// Peers block on a collective; poisoning releases them.
				r.Barrier()
			})
		}()
		// The next run must start from a clean abort/collective state.
		for run := 0; run < 3; run++ {
			if got := chainRun(c); got != 15 {
				t.Fatalf("persistent=%v run %d after panic: processed %d, want 15",
					persistent, run, got)
			}
		}
		c.Close()
	}
}

func TestResetDiscardsStaleTraffic(t *testing.T) {
	// A panic mid-traversal can leave messages parked in outgoing buffers
	// and mailboxes; the next run must not observe them.
	c := newComm(t, 32, 4, QueueFIFO)
	func() {
		defer func() { _ = recover() }()
		c.Run(func(r *Rank) {
			if r.ID() == 0 {
				// Buffer traffic without flushing, then explode.
				for i := 0; i < 10; i++ {
					r.out[i%len(r.out)] = append(r.out[i%len(r.out)], Msg{Target: 1})
				}
				panic("boom")
			}
			r.Barrier()
		})
	}()
	var visits atomic.Int64
	c.Run(func(r *Rank) {
		st := r.Traverse(&Traversal{
			Visit: func(r *Rank, m Msg) {},
		})
		visits.Add(st.Processed)
	})
	if visits.Load() != 0 {
		t.Fatalf("stale traffic leaked into fresh run: %d visits", visits.Load())
	}
}
