package runtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

// ownedBy lists each rank's vertices so a scenario can aim a message at a
// chosen rank.
func ownedBy(c *Comm, n int) [][]graph.VID {
	owned := make([][]graph.VID, c.NumRanks())
	for v := 0; v < n; v++ {
		o := c.Partition().Owner(graph.VID(v))
		owned[o] = append(owned[o], graph.VID(v))
	}
	return owned
}

// TestTerminationStress hammers loopback quiescence detection, which counts
// messages per batch rather than per message: a traversal must neither hang
// nor return while a message is unprocessed, whatever mix of local sends,
// cross-rank batches, Admit drops and queue entries replaced through their
// slot it is made of. Processed summed over ranks equalling
// Sent minus the Admit drops and the replacements is the no-early-return
// check; the watchdog is the no-hang check.
func TestTerminationStress(t *testing.T) {
	const perRank = 8
	var drops atomic.Int64
	type scenario struct {
		name string
		make func(owned [][]graph.VID) *Traversal
	}
	// next returns a vertex of the rank after r (r itself when alone).
	next := func(owned [][]graph.VID, r *Rank, i int) graph.VID {
		vs := owned[(r.ID()+1)%len(owned)]
		return vs[i%len(vs)]
	}
	// slotted queues every message for its target vertex: two messages for
	// one vertex queued at once — a repeated local send, or a batch carrying
	// both — leave one entry. Every step sends its successor twice, so
	// replacements happen whether the successor lives here or elsewhere. A
	// local successor is queued as a row (Rank.PushRow) where the queue holds
	// rows and sent to this rank otherwise; a remote one is queued for its row
	// by Admit. label[v] is the Dist of v's newest entry, which only v's owner
	// writes. Its scenarios ("slotted…") run on the priority queue, the one
	// that keeps one entry per row, and must replace something.
	slotted := func(bsp bool) func(owned [][]graph.VID) *Traversal {
		return func(owned [][]graph.VID) *Traversal {
			n := 0
			for _, vs := range owned {
				n += len(vs)
			}
			label := make([]graph.Dist, n)
			send := func(r *Rank, v graph.VID, d graph.Dist) {
				if r.Owns(v) && r.PushRow(uint64(d), int32(v)) {
					label[v] = d
					return
				}
				r.Send(Msg{Target: v, Dist: d})
			}
			step := func(r *Rank, d graph.Dist) {
				if d > 0 {
					u := next(owned, r, int(d))
					send(r, u, d-1)
					send(r, u, d-1)
				}
			}
			return &Traversal{
				Ordered: true,
				BSP:     bsp,
				Init: func(r *Rank) {
					for i := 0; i < 3*perRank; i++ {
						send(r, owned[r.ID()][i%perRank], graph.Dist(i%4))
						send(r, next(owned, r, i), graph.Dist(i%5))
					}
				},
				Admit: func(r *Rank, m Msg) int32 {
					label[m.Target] = m.Dist
					return int32(m.Target)
				},
				Expand: func(r *Rank, row int32) { step(r, label[row]) },
				Visit:  func(r *Rank, m Msg) { step(r, m.Dist) },
			}
		}
	}
	scenarios := []scenario{
		{"zero-message", func([][]graph.VID) *Traversal {
			return &Traversal{Visit: func(*Rank, Msg) {}}
		}},
		{"self-sends", func(owned [][]graph.VID) *Traversal {
			return &Traversal{
				Ordered: true,
				Init: func(r *Rank) {
					for i, v := range owned[r.ID()] {
						r.Send(Msg{Target: v, Dist: graph.Dist(i % 5)})
					}
				},
				Visit: func(r *Rank, m Msg) {
					if m.Dist > 0 {
						r.Send(Msg{Target: m.Target, Dist: m.Dist - 1})
					}
				},
			}
		}},
		{"all-cross-rank", func(owned [][]graph.VID) *Traversal {
			return &Traversal{
				Ordered: true,
				Init: func(r *Rank) {
					for i := 0; i < 2*perRank; i++ {
						r.Send(Msg{Target: next(owned, r, i), Dist: graph.Dist(i % 7)})
					}
				},
				Visit: func(r *Rank, m Msg) {
					if m.Dist > 0 {
						r.Send(Msg{Target: next(owned, r, int(m.Dist)), Dist: m.Dist - 1})
					}
				},
			}
		}},
		{"mid-visit-flushes", func(owned [][]graph.VID) *Traversal {
			// One visit fills two batches with leaf messages, yields so the
			// receiver can visit them and publish, then sends the message
			// that carries the chain on. The visited message's own unit
			// must outlive the publishes its batches trigger, or the
			// receiver sees zero and leaves before the last send arrives.
			return &Traversal{
				Init: func(r *Rank) {
					if r.ID() == 0 { // one chain: a second would hold the counter up
						r.Send(Msg{Target: owned[0][0], Dist: 4})
					}
				},
				Visit: func(r *Rank, m Msg) {
					if m.Dist == 0 {
						return
					}
					for i := 0; i < 8; i++ {
						r.Send(Msg{Target: next(owned, r, i)})
					}
					goyield()
					r.Send(Msg{Target: next(owned, r, 0), Dist: m.Dist - 1})
				},
			}
		}},
		{"admit-drops-all", func(owned [][]graph.VID) *Traversal {
			return &Traversal{
				Init: func(r *Rank) {
					for i := 0; i < 3*perRank; i++ {
						r.Send(Msg{Target: next(owned, r, i)})
					}
				},
				// Self-sends (the one-rank case) bypass the mailbox and Admit.
				Visit: func(*Rank, Msg) {},
				Admit: func(*Rank, Msg) int32 { drops.Add(1); return AdmitDone },
			}
		}},
		{"slotted-async", slotted(false)},
		{"slotted-bsp", slotted(true)},
	}
	seeds := []int64{1, 2, 3}
	rounds := 200
	if testing.Short() {
		seeds, rounds = seeds[:1], 50
	}
	for _, ranks := range []int{1, 2, 3, 8} {
		for _, sc := range scenarios {
			isSlotted := strings.HasPrefix(sc.name, "slotted")
			for si, seed := range seeds {
				n := perRank * ranks
				part, err := partition.NewBlock(n, ranks)
				if err != nil {
					t.Fatal(err)
				}
				queue := QueueKind(si % 3)
				if isSlotted {
					queue = QueuePriority
				}
				c := MustNew(Config{
					Ranks: ranks, Queue: queue, BatchSize: 4,
					ShuffleDelivery: true, ShuffleSeed: seed,
				}, part)
				c.Start()
				tr := sc.make(ownedBy(c, n))
				label := fmt.Sprintf("ranks=%d %s seed=%d", ranks, sc.name, seed)
				var replacedAll int64
				for round := 0; round < rounds; round++ {
					var sent, processed, replaced atomic.Int64
					drops.Store(0)
					before := c.Stats()
					// A hang must fail the test, and the goroutine dump a
					// panic prints says where every rank is stuck.
					watchdog := time.AfterFunc(30*time.Second, func() {
						panic(fmt.Sprintf("%s: traversal %d hung", label, round))
					})
					c.Run(func(r *Rank) {
						st := r.Traverse(tr)
						sent.Add(st.Sent)
						processed.Add(st.Processed)
						replaced.Add(st.Replaced)
					})
					watchdog.Stop()
					if got, want := processed.Load(), sent.Load()-drops.Load()-replaced.Load(); got != want {
						t.Fatalf("%s: traversal %d returned early: processed %d, want sent %d - dropped %d - replaced %d",
							label, round, got, sent.Load(), drops.Load(), replaced.Load())
					}
					replacedAll += replaced.Load()
					if sc.name != "zero-message" && sent.Load() == 0 {
						t.Fatalf("%s: traversal %d sent nothing", label, round)
					}
					after := c.Stats()
					if after.Sent-before.Sent != sent.Load() || after.Processed-before.Processed != processed.Load() {
						t.Fatalf("%s: traversal %d: Comm.Stats moved by %d/%d, ranks report %d/%d",
							label, round, after.Sent-before.Sent, after.Processed-before.Processed,
							sent.Load(), processed.Load())
					}
				}
				if isSlotted && replacedAll == 0 {
					t.Fatalf("%s: no queue entry was ever replaced", label)
				}
				c.Close()
			}
		}
	}
}

// TestStatsMatchTraversalStats pins Comm.Stats to the sum of the ranks'
// TraversalStats now that the shared counters are fed once per traversal:
// an aborted traversal contributes nothing (its ranks never report), the
// runs after it are exact again, and a communicator hosting a rank subset
// counts its own ranks only.
func TestStatsMatchTraversalStats(t *testing.T) {
	c := newComm(t, 32, 4, QueuePriority)
	c.Start()
	defer c.Close()
	if got := chainRun(c); got != 15 {
		t.Fatalf("clean run processed %d, want 15", got)
	}
	clean := c.Stats()
	if clean.Sent != 15 || clean.Processed != 15 {
		t.Fatalf("clean run stats = %+v, want 15 sent and processed", clean)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the visit panic to propagate")
			}
		}()
		c.Run(func(r *Rank) {
			r.Traverse(&Traversal{
				Init: func(r *Rank) { r.Send(Msg{Target: graph.VID(8 * r.ID()), Dist: 3}) },
				Visit: func(r *Rank, m Msg) {
					// Send locally and across ranks, suppress, then blow up
					// mid-visit.
					r.Suppress()
					if m.Dist > 0 {
						r.Send(Msg{Target: m.Target, Dist: m.Dist - 1})
						r.Send(Msg{Target: (m.Target + 8) % 32, Dist: m.Dist - 1})
					}
					if r.ID() == 2 {
						panic("rank 2 exploded mid-traversal")
					}
				},
			})
		})
	}()
	if got := c.Stats(); got.Sent != clean.Sent || got.Processed != clean.Processed ||
		got.Suppressed != 0 {
		t.Fatalf("aborted traversal leaked into stats: %+v, want %+v", got, clean)
	}
	for run := 0; run < 3; run++ {
		if got := chainRun(c); got != 15 {
			t.Fatalf("run %d after abort processed %d, want 15", run, got)
		}
	}
	if got := c.Stats(); got.Sent != clean.Sent+45 || got.Processed != clean.Processed+45 {
		t.Fatalf("stats after three more runs = %+v, want %d sent and processed", got, clean.Sent+45)
	}

	// Ranks 1 and 2 of 4 behind a transport that goes nowhere: each sends
	// five messages to itself and three to a rank hosted elsewhere. BSP,
	// because the fake transport cannot run a termination-token ring.
	part, err := partition.NewBlock(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := MustNew(Config{Ranks: 4, HostLo: 1, HostHi: 3, Transport: nopTransport{}}, part)
	var sent, processed atomic.Int64
	sub.Run(func(r *Rank) {
		st := r.Traverse(&Traversal{
			BSP:   true,
			Visit: func(*Rank, Msg) {},
			Init: func(r *Rank) {
				for i := 0; i < 5; i++ {
					r.Send(Msg{Target: graph.VID(8*r.ID() + i)})
				}
				for i := 0; i < 3; i++ {
					r.Send(Msg{Target: graph.VID(i)}) // rank 0 lives elsewhere
				}
			},
		})
		sent.Add(st.Sent)
		processed.Add(st.Processed)
	})
	if got := sub.Stats(); got.Sent != 16 || got.Processed != 10 || sent.Load() != 16 || processed.Load() != 10 {
		t.Fatalf("subset comm stats = %d/%d, ranks report %d/%d, want 16 sent / 10 processed",
			got.Sent, got.Processed, sent.Load(), processed.Load())
	}
}

// TestUnorderedIsServedFIFO pins the Traversal.Ordered contract: an unordered
// traversal drains in arrival order under every discipline; an ordered one is
// ordered by the configured discipline.
func TestUnorderedIsServedFIFO(t *testing.T) {
	order := func(q QueueKind, ordered bool) []graph.Dist {
		c := newComm(t, 4, 1, q)
		var got []graph.Dist
		c.Run(func(r *Rank) {
			r.Traverse(&Traversal{
				Ordered: ordered,
				Visit:   func(r *Rank, m Msg) { got = append(got, m.Dist) },
				Init: func(r *Rank) {
					for _, d := range []graph.Dist{300, 100, 200} {
						r.Send(Msg{Target: 0, Dist: d})
					}
				},
			})
		})
		return got
	}
	for _, q := range []QueueKind{QueueFIFO, QueuePriority} {
		if got := fmt.Sprint(order(q, false)); got != "[300 100 200]" {
			t.Fatalf("queue=%v, unordered: visited %s, want arrival order", q, got)
		}
	}
	if got := fmt.Sprint(order(QueuePriority, true)); got != "[100 200 300]" {
		t.Fatalf("queue=priority, ordered: visited %s, want distance order", got)
	}
}
