package pq

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// indexedModel is the specification Indexed must match, kept as simple as
// possible: the live entries in a slice, sorted by (key, handle) to pop, a
// replacement found by scanning for the slot, and handles recycled last
// popped first and restarted at zero by Reset.
type indexedModel struct {
	live []modelEntry
	free []int32
	next int32
}

type modelEntry struct {
	key     uint64
	h, slot int32
	item    int
}

func (m *indexedModel) push(item int, key uint64, slot int32) bool {
	if slot >= 0 {
		for i := range m.live {
			if m.live[i].slot == slot {
				m.live[i].item, m.live[i].key = item, key
				return true
			}
		}
	}
	h := m.next
	if n := len(m.free); n > 0 {
		h, m.free = m.free[n-1], m.free[:n-1]
	} else {
		m.next++
	}
	m.live = append(m.live, modelEntry{key: key, h: h, slot: slot, item: item})
	return false
}

func (m *indexedModel) pop() (int, int32, bool) {
	if len(m.live) == 0 {
		return 0, -1, false
	}
	sort.Slice(m.live, func(i, j int) bool {
		a, b := m.live[i], m.live[j]
		return a.key < b.key || (a.key == b.key && a.h < b.h)
	})
	e := m.live[0]
	m.live = m.live[1:]
	m.free = append(m.free, e.h)
	return e.item, e.slot, true
}

func (m *indexedModel) reset() {
	m.live, m.free, m.next = m.live[:0], m.free[:0], 0
}

// checkIndexedOps drives q and the model with the same operations, two bytes
// each, and fails on the first difference: pushes for one of 16 slots (a
// replacement whenever that slot is queued, moving its key either way), with
// an item or without one (PushSlot, whose entry pops the zero item), pushes
// with slot -1, late pushes keyed below the last key popped, pops, and now
// and then a Reset with entries still queued. A key is a value in 0..15
// shifted left by one of eight widths up to 60, both drawn from the stream,
// so keys span bit lengths 0 to 64 — every radix bucket, and refills that
// cross bit widths — while ties, broken on handle, stay the norm. After the
// last operation both are drained.
func checkIndexedOps(t *testing.T, q *Indexed[int], ops []byte) {
	t.Helper()
	var m indexedModel
	var popped uint64 // the key of the last pop
	q.Reset()
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		key := uint64(arg>>4) << keyWidths[op>>5]
		switch op % 8 {
		case 0, 1:
			slot := int32(arg % 16)
			if got, want := q.Push(i, key, slot), m.push(i, key, slot); got != want {
				t.Fatalf("op %d: Push(slot %d) replaced = %v, model %v", i/2, slot, got, want)
			}
		case 2:
			slot := int32(arg % 16)
			if got, want := q.PushSlot(key, slot), m.push(0, key, slot); got != want {
				t.Fatalf("op %d: PushSlot(%d) replaced = %v, model %v", i/2, slot, got, want)
			}
		case 3:
			if q.Push(i, key, -1) || m.push(i, key, -1) {
				t.Fatalf("op %d: a slot -1 push replaced an entry", i/2)
			}
		case 6:
			// A late arrival, like a peer's offer under async: below the
			// last key popped, with or without a slot.
			key = popped - min(popped, uint64(arg>>4)+1)
			slot := int32(arg % 16)
			if arg&16 != 0 {
				slot = -1
			}
			if got, want := q.Push(i, key, slot), m.push(i, key, slot); got != want {
				t.Fatalf("op %d: late Push(slot %d) replaced = %v, model %v", i/2, slot, got, want)
			}
		case 7:
			if arg%4 == 0 {
				q.Reset()
				m.reset()
				break
			}
			fallthrough
		default:
			var next uint64
			for j, e := range m.live {
				if j == 0 || e.key < next {
					next = e.key
				}
			}
			got, gslot, gok := q.Pop()
			want, wslot, wok := m.pop()
			if got != want || gslot != wslot || gok != wok {
				t.Fatalf("op %d: Pop = (%d, %d, %v), model (%d, %d, %v)", i/2, got, gslot, gok, want, wslot, wok)
			}
			if wok {
				popped = next
			}
		}
		if q.Len() != len(m.live) {
			t.Fatalf("op %d: Len = %d, model holds %d", i/2, q.Len(), len(m.live))
		}
	}
	for len(m.live) > 0 {
		want, wslot, _ := m.pop()
		if got, slot, ok := q.Pop(); !ok || got != want || slot != wslot {
			t.Fatalf("drain: Pop = (%d, %d, %v), model (%d, %d)", got, slot, ok, want, wslot)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on a drained heap returned ok")
	}
}

// keyWidths are the shifts checkIndexedOps applies to a key, indexed by the
// top three bits of an operation byte: mostly narrow, so that ties and
// refills within a few bits are common, and a few wide enough to reach the
// top buckets.
var keyWidths = [8]uint{0, 0, 0, 2, 7, 21, 40, 60}

// TestIndexedMatchesSortedModel is the differential test of the indexed
// queue: random operation streams, push-heavy while the queue grows and
// pop-heavy while it shrinks, on one queue reused across streams.
func TestIndexedMatchesSortedModel(t *testing.T) {
	q := NewIndexed[int](0)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*5000)
		rng.Read(ops)
		// Shrinking phases: turn most pushes of every other stretch into pops.
		for i := 0; i < len(ops); i += 2 {
			if (i/1000)%2 == 1 && ops[i]%8 < 4 && rng.Intn(3) > 0 {
				ops[i] = 4
			}
		}
		checkIndexedOps(t, q, ops)
	}
}

// TestIndexedResetForgetsQueuedSlots pins reuse after a Reset that found
// entries still queued: their slots must not stay claimed, or the next
// traversal's first push for one of them would replace an entry that no
// longer exists.
func TestIndexedResetForgetsQueuedSlots(t *testing.T) {
	q := NewIndexed[string](0)
	for s := int32(0); s < 5; s++ {
		q.Push("old", uint64(s), s)
	}
	q.Pop()
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after Reset", q.Len())
	}
	for s := int32(4); s >= 0; s-- {
		if q.Push("new", uint64(10-s), s) {
			t.Fatalf("slot %d still claimed after Reset", s)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	for i := 0; i < 5; i++ {
		if got, _, ok := q.Pop(); !ok || got != "new" {
			t.Fatalf("pop %d = (%q, %v): an item from before the Reset survived", i, got, ok)
		}
	}
}

// TestIndexedHeadersStayApart pins the padding around Indexed's slice
// headers: two queues allocated back to back, as two ranks' queues are, keep
// their headers at least 128 bytes apart, so neither shares a cache line (or
// an adjacent-line pair) with the other. Unpadded, the allocator puts them
// side by side.
func TestIndexedHeadersStayApart(t *testing.T) {
	headers := func(q *Indexed[int]) (lo, hi uintptr) {
		// a is the first field after the leading pad, bk the last before the
		// trailing one.
		return uintptr(unsafe.Pointer(&q.a)), uintptr(unsafe.Pointer(&q.bk)) + unsafe.Sizeof(q.bk)
	}
	for i := 0; i < 16; i++ {
		p, q := NewIndexed[int](0), NewIndexed[int](0)
		plo, phi := headers(p)
		qlo, qhi := headers(q)
		gap := max(int64(qlo)-int64(phi), int64(plo)-int64(qhi))
		if gap < 128 {
			t.Fatalf("two queues' headers are %d bytes apart (at %#x and %#x), want at least 128", gap, plo, qlo)
		}
	}
}

// FuzzIndexedHeap runs checkIndexedOps on arbitrary operation streams.
func FuzzIndexedHeap(f *testing.F) {
	f.Add([]byte{0, 0x31, 0, 0x21, 1, 0x11, 4, 0, 0, 0x01, 5, 0, 5, 0})
	f.Add([]byte{3, 0x50, 3, 0x50, 0, 0x52, 0, 0x42, 0, 0x62, 7, 0, 0, 0x52, 4, 0})
	// A refill across bit widths: keys 1<<60, 3<<40, 5<<21 and ties at 2<<7
	// wait in four buckets above the first pop's key, then drain lowest first.
	f.Add([]byte{0, 0x00, 0xe0, 0x11, 0xc0, 0x32, 0xa3, 0x50, 0x83, 0x20, 0x82, 0x23, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0})
	// Late arrivals: after popping 9<<21 with 12<<21 still bucketed, two
	// pushes below it (without a slot, then with one) pop before the bucketed
	// entry, and a replacement pulls that entry down to key 0.
	f.Add([]byte{0xa0, 0x91, 0xa0, 0xc2, 4, 0, 6, 0x13, 6, 0x00, 4, 0, 0, 0x02, 4, 0, 4, 0})
	q := NewIndexed[int](0)
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkIndexedOps(t, q, ops)
	})
}

// BenchmarkIndexedPushPop is BenchmarkHeapPushPop on the indexed queue, with
// every push an ordinary (slot -1) entry: the cost of the 16-byte entries
// and the position updates against Heap's whole-item entries. Its flood case
// is the traversal the queue is built for.
func BenchmarkIndexedPushPop(b *testing.B) {
	run := func(name string, live int, spread uint64) {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			h := NewIndexed[msgItem](live)
			for done := 0; done < b.N; done += live {
				for i := 0; i < live; i++ {
					k := uint64(i)/16*spread/64 + rng.Uint64()%(spread+1)
					h.Push(msgItem{target: uint32(i), from: uint32(i), seed: 1, dist: k, kind: 1}, k, -1)
				}
				for i := 0; i < live; i++ {
					h.Pop()
				}
			}
		})
	}
	run("live=1K", 1<<10, 5000)
	run("live=64K", 1<<16, 5000)
	run("live=512K", 1<<19, 5000)

	// flood is the shape the Voronoi flood gives the queue: a multi-source
	// Dijkstra over a random graph with one PushSlot entry per row, a
	// decrease-key whenever a queued row improves, every push at or above
	// the last key popped, and a frontier that peaks near 16 K rows. ns/op is
	// per pop, with the pushes and the arc scans between pops included.
	b.Run("flood", func(b *testing.B) {
		const n, deg, sources = 1 << 15, 5, 16
		rng := rand.New(rand.NewSource(1))
		arcs := make([]int32, n*deg)
		wts := make([]uint64, n*deg)
		for i := range arcs {
			arcs[i] = int32(rng.Intn(n))
			wts[i] = 1 + uint64(rng.Intn(1000))
		}
		dist := make([]uint64, n)
		h := NewIndexed[msgItem](1024)
		b.ResetTimer()
		for done := 0; done < b.N; {
			for v := range dist {
				dist[v] = ^uint64(0)
			}
			for s := int32(0); s < sources; s++ {
				dist[s*n/sources] = 0
				h.PushSlot(0, s*n/sources)
			}
			for {
				_, v, ok := h.Pop()
				if !ok {
					break
				}
				done++
				d := dist[v]
				for i := int(v) * deg; i < int(v+1)*deg; i++ {
					if u, nd := arcs[i], d+wts[i]; nd < dist[u] {
						dist[u] = nd
						h.PushSlot(nd, u)
					}
				}
			}
		}
	})
}
