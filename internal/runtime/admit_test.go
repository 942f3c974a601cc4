package runtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

// TestMsgIs24Bytes pins the visitor message at 24 bytes: Kind rides in the
// padding after the three VIDs, ahead of Dist. Every queue entry, batch
// buffer and mailbox copy holds messages, so moving Kind behind Dist again
// would grow all of them by a third.
func TestMsgIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Msg{}) = %d, want 24", got)
	}
}

// TestAdmitBatchMixesEntries hands the Admit hook batches that mix the three
// outcomes — finished on arrival, queued for a row, queued as a message —
// and checks the termination accounting and every counter exactly, on the
// priority queue that holds rows, on the FIFO ring, and under BSP, in one
// batch and in several.
//
// Rank 0 sends rank 1 eight messages: three that Admit finishes, three for
// rows (the first row twice, the second time with a smaller key) and two it
// queues as messages. Under QueuePriority the repeated row replaces its
// entry, so four entries are processed: the rows by Expand where the queue
// holds rows, by Visit under BSP. The FIFO ring keeps and visits all five.
func TestAdmitBatchMixesEntries(t *testing.T) {
	const (
		finish = iota
		row
		message
	)
	offers := []Msg{
		{Target: 8, Kind: finish, Dist: 1},
		{Target: 9, Kind: row, Dist: 7},
		{Target: 10, Kind: message, Dist: 3},
		{Target: 10, Kind: row, Dist: 5},
		{Target: 11, Kind: finish, Dist: 2},
		{Target: 9, Kind: row, Dist: 4},
		{Target: 12, Kind: message, Dist: 6},
		{Target: 13, Kind: finish, Dist: 8},
	}
	for _, tc := range []struct {
		queue                        QueueKind
		bsp                          bool
		processed, replaced, expands int64
	}{
		{QueuePriority, false, 4, 1, 2},
		{QueuePriority, true, 4, 1, 0},
		{QueueFIFO, false, 5, 0, 0},
		{QueueFIFO, true, 5, 0, 0},
	} {
		for _, batchSize := range []int{64, 3} {
			label := fmt.Sprintf("queue=%v bsp=%v batch=%d", tc.queue, tc.bsp, batchSize)
			part, err := partition.NewBlock(16, 2)
			if err != nil {
				t.Fatal(err)
			}
			c := MustNew(Config{Ranks: 2, Queue: tc.queue, BatchSize: batchSize}, part)
			var sent, processed, replaced, expands, visits, admitted atomic.Int64
			tr := &Traversal{
				Ordered: true,
				BSP:     tc.bsp,
				Init: func(r *Rank) {
					if r.ID() == 0 {
						for _, m := range offers {
							r.Send(m)
						}
					}
				},
				Admit: func(r *Rank, batch []Msg) {
					admitted.Add(int64(len(batch)))
					done := 0
					for _, m := range batch {
						switch m.Kind {
						case finish:
							done++
						case row:
							r.Queue(m, int32(m.Target-8))
						default:
							r.Queue(m, -1)
						}
					}
					r.Finished(done)
				},
				Expand: func(*Rank, int32) { expands.Add(1) },
				Visit:  func(*Rank, Msg) { visits.Add(1) },
			}
			c.Run(func(r *Rank) {
				st := r.Traverse(tr)
				sent.Add(st.Sent)
				processed.Add(st.Processed)
				replaced.Add(st.Replaced)
			})
			if got := c.pending.Load(); got != 0 {
				t.Fatalf("%s: pending = %d after the traversal, want 0", label, got)
			}
			if sent.Load() != 8 || processed.Load() != tc.processed || replaced.Load() != tc.replaced {
				t.Fatalf("%s: sent/processed/replaced = %d/%d/%d, want 8/%d/%d", label,
					sent.Load(), processed.Load(), replaced.Load(), tc.processed, tc.replaced)
			}
			if admitted.Load() != 8 || expands.Load() != tc.expands || visits.Load() != tc.processed-tc.expands {
				t.Fatalf("%s: admitted %d, expanded %d, visited %d; want 8, %d, %d", label,
					admitted.Load(), expands.Load(), visits.Load(), tc.expands, tc.processed-tc.expands)
			}
			if s := c.Stats(); s.Sent != 8 || s.Processed != tc.processed {
				t.Fatalf("%s: Comm.Stats = %+v, want 8 sent, %d processed", label, s, tc.processed)
			}
		}
	}
}

// TestNeedYield pins the fairness-yield rule: a transport-backed rank always
// yields; an in-process one only while the running ranks of its
// communicator, itself included, outnumber GOMAXPROCS. Ranks with a core
// each do not yield, nor does a rank whose peers are all parked;
// oversubscribed runs — 3, 4 and 8 ranks on a small box — still do.
func TestNeedYield(t *testing.T) {
	for _, tc := range []struct {
		transport   bool
		busy, procs int
		want        bool
	}{
		{false, 2, 2, false}, // two ranks, two cores
		{false, 1, 4, false}, // fewer ranks than cores
		{false, 1, 1, false}, // every peer parked: nothing to hand over
		{false, 3, 2, true},  // three ranks on two cores
		{false, 4, 2, true},  // four ranks on two cores
		{false, 8, 1, true},  // eight ranks on one core
		{true, 1, 8, true},   // readers need the CPU
		{true, 2, 2, true},
	} {
		if got := needYield(tc.transport, tc.busy, tc.procs); got != tc.want {
			t.Errorf("needYield(transport=%v, busy=%d, procs=%d) = %v, want %v",
				tc.transport, tc.busy, tc.procs, got, tc.want)
		}
	}
}

// TestAdmitOverFinishPanics checks that an Admit hook releasing more messages
// than its batch holds fails loudly: the surplus throws off the termination
// counter, so the traversal would end early with work still queued — wrong
// results and no error — or, as here, never end.
func TestAdmitOverFinishPanics(t *testing.T) {
	c := newComm(t, 16, 2, QueuePriority)
	var got any
	func() {
		defer func() { got = recover() }()
		c.Run(func(r *Rank) {
			r.Traverse(&Traversal{
				Ordered: true,
				Init: func(r *Rank) {
					if r.ID() == 1 {
						for v := graph.VID(0); v < 4; v++ {
							r.Send(Msg{Target: v, Dist: graph.Dist(v)})
						}
					}
				},
				Admit:  func(r *Rank, batch []Msg) { r.Finished(len(batch) + 1) },
				Expand: func(*Rank, int32) {},
				Visit:  func(*Rank, Msg) {},
			})
		})
	}()
	// Rank 0 admits the batch, so its panic is the one Run re-raises.
	if msg, _ := got.(string); !strings.Contains(msg, "Admit finished") {
		t.Fatalf("recovered %v, want the over-finish panic", got)
	}
}

// BenchmarkCrossRankBatch times the in-process cross-rank offer path: rank 0
// sends rank 1 offers, which Send batches, flushes full batches
// into rank 1's mailbox, and rank 1 drains each batch through one Admit call
// that finishes three offers in four and queues the fourth for its row. It
// reports ns per message, Run's barriers amortised over 16K messages.
func BenchmarkCrossRankBatch(b *testing.B) {
	const perRun = 1 << 14
	c := newComm(b, 2048, 2, QueuePriority)
	c.Start()
	defer c.Close()
	tr := &Traversal{
		Ordered: true,
		Init: func(r *Rank) {
			if r.ID() != 0 {
				return
			}
			for i := 0; i < perRun; i++ {
				r.Send(Msg{Target: graph.VID(1024 + i%1024), From: graph.VID(i % 1024), Seed: 7, Dist: graph.Dist(i)})
			}
		},
		Admit: func(r *Rank, batch []Msg) {
			done := 0
			for _, m := range batch {
				if m.Dist%4 != 0 {
					done++
					continue
				}
				r.Queue(m, int32(m.Target-1024))
			}
			r.Finished(done)
		},
		Expand: func(*Rank, int32) {},
		Visit:  func(*Rank, Msg) {},
	}
	run := func() { c.Run(func(r *Rank) { r.Traverse(tr) }) }
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perRun, "ns/msg")
}
