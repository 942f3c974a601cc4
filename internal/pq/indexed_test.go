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

// ixPair drives an Indexed and the sorted model with the same scripted calls
// and fails on the first difference, in a replacement report, a pop or Len.
type ixPair struct {
	t    *testing.T
	q    *Indexed[int]
	m    indexedModel
	item int
}

func newIxPair(t *testing.T) *ixPair {
	return &ixPair{t: t, q: NewIndexed[int](0)}
}

// push queues a fresh item under key for slot (-1 for an ordinary entry).
func (p *ixPair) push(key uint64, slot int32) {
	p.t.Helper()
	p.item++
	if got, want := p.q.Push(p.item, key, slot), p.m.push(p.item, key, slot); got != want {
		p.t.Fatalf("Push(%d, key %d, slot %d) replaced = %v, model %v", p.item, key, slot, got, want)
	}
	p.checkLen()
}

// pushSlot is push through PushSlot, whose entry pops the zero item.
func (p *ixPair) pushSlot(key uint64, slot int32) {
	p.t.Helper()
	if got, want := p.q.PushSlot(key, slot), p.m.push(0, key, slot); got != want {
		p.t.Fatalf("PushSlot(key %d, slot %d) replaced = %v, model %v", key, slot, got, want)
	}
	p.checkLen()
}

func (p *ixPair) pop() {
	p.t.Helper()
	got, gslot, gok := p.q.Pop()
	want, wslot, wok := p.m.pop()
	if got != want || gslot != wslot || gok != wok {
		p.t.Fatalf("Pop = (%d, %d, %v), model (%d, %d, %v)", got, gslot, gok, want, wslot, wok)
	}
	p.checkLen()
}

func (p *ixPair) reset() {
	p.q.Reset()
	p.m.reset()
	p.checkLen()
}

// drain pops until the model is empty, then checks that the queue is too.
func (p *ixPair) drain() {
	p.t.Helper()
	for len(p.m.live) > 0 {
		p.pop()
	}
	p.pop()
}

func (p *ixPair) checkLen() {
	p.t.Helper()
	if p.q.Len() != len(p.m.live) {
		p.t.Fatalf("Len = %d, model holds %d", p.q.Len(), len(p.m.live))
	}
}

// TestIndexedTiesSpanSummaryWords queues more than 4,096 ties at one key, so
// the tie set's summary has a second word, then opens a gap of 64 empty
// words between the ties of word 0 and the rest by moving their keys above
// last. Popping through the gap must find the first tie past it from the
// summary (a summary bit left set for an emptied word sends Pop into the
// gap). Pushes in between reuse recycled handles, some below the cursor's
// word, and moving gap entries back to last brings the cursor down across
// summary words.
func TestIndexedTiesSpanSummaryWords(t *testing.T) {
	p := newIxPair(t)
	const n = 5000
	for s := int32(0); s < n; s++ {
		p.push(7, s) // the first push sets last to 7: every entry is a tie
	}
	for s := int32(64); s < 64+64*64; s++ {
		p.push(9, s) // handles 64..4159 leave the tie set for a bucket
	}
	for i := 0; i < 40; i++ {
		p.pop()
		p.pop()
		p.push(7, -1) // reuses the handle just popped
	}
	for i := 0; i < 30; i++ {
		p.pop() // word 0 runs dry: the next tie is handle 4160, in summary word 1
	}
	for i := 0; i < 150; i++ {
		p.pop()
		p.pop()
		p.pop()
		p.push(7, n+int32(i)) // reuses the handle popped last,
		p.push(7, -1)         // and the one before it: below the cursor after a word boundary
	}
	for s := int32(4000); s > 100; s -= 97 {
		p.push(7, s) // back to last from the bucket: ties in summary word 0
	}
	for i := 0; i < 200; i++ {
		p.pop()
	}
	p.drain()
}

// TestIndexedTieMoves moves entries between the three places a key can put
// them: a tie moved below last (into the heap), then above it (into a
// bucket), then back to last; and a late arrival in the heap moved up to
// last, into the tie set.
func TestIndexedTieMoves(t *testing.T) {
	p := newIxPair(t)
	for s := int32(0); s < 6; s++ {
		p.pushSlot(10, s)
	}
	p.pop()          // last stays 10, slot 0 leaves
	p.pushSlot(4, 3) // tie → heap
	p.pushSlot(25, 3)
	p.pushSlot(10, 3) // bucket → tie
	p.pushSlot(4, 2)  // tie → heap
	p.pushSlot(30, 2) // heap → bucket
	p.pushSlot(10, 2) // and back
	p.push(6, 7)      // a late arrival
	p.push(3, -1)     // another, without a slot
	p.push(10, 7)     // heap → tie
	p.pop()           // the slotless late arrival
	p.pushSlot(12, 5) // tie → bucket
	p.pushSlot(10, 5) // bucket → tie
	p.pushSlot(10, 1) // tie → tie, in place
	p.drain()
}

// TestIndexedResetForgetsQueuedTies resets a queue with ties still queued:
// their slots must be free again, so a later PushSlot for one queues a new
// entry, and the tie set must be empty, so no bit left over from before
// pops a handle the next traversal has not queued.
func TestIndexedResetForgetsQueuedTies(t *testing.T) {
	p := newIxPair(t)
	for s := int32(0); s < 100; s++ {
		p.pushSlot(5, s)
	}
	p.push(9, 200) // bucketed
	p.pop()
	p.reset()
	for s := int32(99); s >= 60; s-- {
		p.pushSlot(uint64(s%3), s) // ties at 0 first, then a bucket at 1 and 2
	}
	p.push(0, -1)
	p.drain()
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
	// A long tie run: 80 ordinary entries and 16 slots at key 7, past the
	// tie set's first word, popped in handle order while PushSlot moves
	// slots out of the run and back and pushes reuse the handles just
	// popped; then a Reset with ties still queued, and the same slots again.
	ties := []byte{}
	for i := 0; i < 80; i++ {
		ties = append(ties, 3, 0x70)
	}
	for s := 0; s < 16; s++ {
		ties = append(ties, 2, byte(0x70|s))
	}
	for i := 0; i < 24; i++ {
		ties = append(ties, 4, 0, 2, byte(0x90|i%8), 3, 0x70, 4, 0, 2, byte(0x70|i%4))
	}
	ties = append(ties, 7, 0)
	for i := 0; i < 20; i++ {
		ties = append(ties, 2, byte(0x30|i%16), 4, 0)
	}
	f.Add(ties)
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
		const n, deg = 1 << 15, 5
		rng := rand.New(rand.NewSource(1))
		off := make([]int32, n+1)
		arcs := make([]int32, n*deg)
		wts := make([]uint64, n*deg)
		for v := range off {
			off[v] = int32(v * deg)
		}
		for i := range arcs {
			arcs[i] = int32(rng.Intn(n))
			wts[i] = 1 + uint64(rng.Intn(1000))
		}
		benchDijkstra(b, off, arcs, wts, 16)
	})

	// ties is the same flood on the grid-manyterm-modes graph: a 128×256
	// 4-neighbour grid with weights 1–100 from 2,048 sources, where most of
	// what the queue holds at a pop is ties at the current key.
	b.Run("ties", func(b *testing.B) {
		const rows, cols = 128, 256
		rng := rand.New(rand.NewSource(1))
		off := make([]int32, 0, rows*cols+1)
		var arcs []int32
		var wts []uint64
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				off = append(off, int32(len(arcs)))
				for _, d := range [4][2]int{{-1, 0}, {0, -1}, {0, 1}, {1, 0}} {
					if r2, c2 := r+d[0], c+d[1]; r2 >= 0 && r2 < rows && c2 >= 0 && c2 < cols {
						arcs = append(arcs, int32(r2*cols+c2))
						wts = append(wts, 1+uint64(rng.Intn(100)))
					}
				}
			}
		}
		off = append(off, int32(len(arcs)))
		benchDijkstra(b, off, arcs, wts, 2048)
	})
}

// benchDijkstra times multi-source Dijkstra floods over the graph whose row
// v has arcs[off[v]:off[v+1]] with weights wts, from sources rows spread
// evenly, with one PushSlot entry per row and a decrease-key whenever a
// queued row improves. ns/op is per pop.
func benchDijkstra(b *testing.B, off, arcs []int32, wts []uint64, sources int32) {
	n := int32(len(off) - 1)
	dist := make([]uint64, n)
	h := NewIndexed[msgItem](1024)
	b.ResetTimer()
	for done := 0; done < b.N; {
		for v := range dist {
			dist[v] = ^uint64(0)
		}
		for s := int32(0); s < sources; s++ {
			dist[s*(n/sources)] = 0
			h.PushSlot(0, s*(n/sources))
		}
		for {
			_, v, ok := h.Pop()
			if !ok {
				break
			}
			done++
			d := dist[v]
			for i := off[v]; i < off[v+1]; i++ {
				if u, nd := arcs[i], d+wts[i]; nd < dist[u] {
					dist[u] = nd
					h.PushSlot(nd, u)
				}
			}
		}
	}
}
