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
// with slot -1, pops, and now and then a Reset with entries still queued. Keys span 0..15, so ties, broken on handle, are the norm. After the
// last operation both are drained.
func checkIndexedOps(t *testing.T, q *Indexed[int], ops []byte) {
	t.Helper()
	var m indexedModel
	q.Reset()
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		key := uint64(arg >> 4)
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
		case 7:
			if arg%4 == 0 {
				q.Reset()
				m.reset()
				break
			}
			fallthrough
		default:
			got, gslot, gok := q.Pop()
			want, wslot, wok := m.pop()
			if got != want || gslot != wslot || gok != wok {
				t.Fatalf("op %d: Pop = (%d, %d, %v), model (%d, %d, %v)", i/2, got, gslot, gok, want, wslot, wok)
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

// TestIndexedMatchesSortedModel is the differential test of the indexed
// heap: random operation streams, push-heavy while the heap grows and
// pop-heavy while it shrinks, on one heap reused across streams.
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
		return uintptr(unsafe.Pointer(&q.a)), uintptr(unsafe.Pointer(&q.live)) + unsafe.Sizeof(q.live)
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
	q := NewIndexed[int](0)
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkIndexedOps(t, q, ops)
	})
}

// BenchmarkIndexedPushPop is BenchmarkHeapPushPop on the indexed heap, with
// every push an ordinary (slot -1) entry: the cost of the 16-byte entries
// and the position updates against Heap's whole-item entries.
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
}
