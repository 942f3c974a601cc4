package main

import (
	"cmp"
	"fmt"
	"slices"

	"dsteiner/internal/graph"
)

// yardstick is the benchmark's unit of measure: a single-thread sequential
// Mehlhorn 2-approximation (multi-source binary-heap Dijkstra over
// Graph.Adj, cross-edge scan, Kruskal on the cell-pair minima, predecessor
// path expansion). It is FROZEN: it lives in bench/ so that no later change
// to internal/baseline, internal/sssp or internal/mst can move the
// denominator of every ratio metric. Do not optimise it.
//
// All O(|V|) state is allocated once and reset by epoch, and the heap, the
// cell-pair table and the edge buffers keep their capacity between queries,
// so a warm Solve allocates nothing: its time does not depend on what the
// garbage collector happens to be doing for the system under test.
type yardstick struct {
	g *graph.Graph

	epoch uint32
	stamp []uint32 // stamp[v] == epoch  <=>  dist/src/pred/predW[v] are valid
	dist  []graph.Dist
	src   []int32 // dense terminal index of v's Voronoi cell
	pred  []graph.VID
	predW []uint32
	walk  []uint32 // walk[v] == epoch  <=>  v's predecessor path is already in the tree

	heap []heapItem

	// Cell-pair table: open addressing on (cell a << 32 | cell b), a < b,
	// holding the minimum bridge of each adjacent cell pair.
	slots     []pairSlot
	slotStamp []uint32
	used      []int32 // occupied slot indices of this query

	bridges []bridge
	uf      []int32
	tree    []graph.Edge
}

type heapItem struct {
	d graph.Dist
	v graph.VID
}

type pairSlot struct {
	key uint64
	b   bridge
}

// bridge is a cross-cell edge (u,v) with the length of the terminal-to-
// terminal path through it: dist[u] + w + dist[v].
type bridge struct {
	d    graph.Dist
	u, v graph.VID
	w    uint32
	a, b int32 // the two cells, a < b
}

func newYardstick(g *graph.Graph) *yardstick {
	n := g.NumVertices()
	const initialSlots = 1 << 12
	return &yardstick{
		g:         g,
		stamp:     make([]uint32, n),
		dist:      make([]graph.Dist, n),
		src:       make([]int32, n),
		pred:      make([]graph.VID, n),
		predW:     make([]uint32, n),
		walk:      make([]uint32, n),
		slots:     make([]pairSlot, initialSlots),
		slotStamp: make([]uint32, initialSlots),
	}
}

// Solve returns a 2-approximate Steiner tree of the distinct terminals and
// its weight. The edge slice aliases internal storage and is valid until
// the next Solve. Terminals in different components are an error.
func (y *yardstick) Solve(terminals []graph.VID) (graph.Dist, []graph.Edge, error) {
	y.epoch++
	y.tree = y.tree[:0]
	if len(terminals) < 2 {
		return 0, y.tree, nil
	}
	y.voronoi(terminals)
	y.scanBridges()
	if err := y.kruskal(len(terminals)); err != nil {
		return 0, nil, err
	}
	var total graph.Dist
	for _, e := range y.tree {
		total += graph.Dist(e.W)
	}
	return total, y.tree, nil
}

// voronoi is Mehlhorn's step 1: one Dijkstra sweep from all terminals at
// once. Ties between cells go to the smaller terminal index.
func (y *yardstick) voronoi(terminals []graph.VID) {
	ep := y.epoch
	y.heap = y.heap[:0]
	for i, t := range terminals {
		y.stamp[t] = ep
		y.dist[t] = 0
		y.src[t] = int32(i)
		y.pred[t] = t
		y.push(heapItem{0, t})
	}
	for len(y.heap) > 0 {
		it := y.pop()
		v := it.v
		if it.d > y.dist[v] {
			continue // superseded entry
		}
		sv := y.src[v]
		ts, ws := y.g.Adj(v)
		for i, u := range ts {
			nd := it.d + graph.Dist(ws[i])
			if y.stamp[u] == ep && (y.dist[u] < nd || (y.dist[u] == nd && y.src[u] <= sv)) {
				continue
			}
			improved := y.stamp[u] != ep || nd < y.dist[u]
			y.stamp[u] = ep
			y.dist[u] = nd
			y.src[u] = sv
			y.pred[u] = v
			y.predW[u] = ws[i]
			if improved {
				y.push(heapItem{nd, u})
			}
		}
	}
}

func (y *yardstick) push(it heapItem) {
	y.heap = append(y.heap, it)
	h := y.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (y *yardstick) pop() heapItem {
	h := y.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	y.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].d < h[l].d {
			l = r
		}
		if h[i].d <= h[l].d {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top
}

// scanBridges is step 2: every edge whose endpoints lie in different cells
// proposes a bridge; the table keeps the minimum (d, u, v) per cell pair.
func (y *yardstick) scanBridges() {
	ep := y.epoch
	y.used = y.used[:0]
	n := y.g.NumVertices()
	for ui := 0; ui < n; ui++ {
		if y.stamp[ui] != ep {
			continue
		}
		u := graph.VID(ui)
		su := y.src[u]
		ts, ws := y.g.Adj(u)
		for i, v := range ts {
			if v <= u || y.stamp[v] != ep || y.src[v] == su {
				continue
			}
			a, b := su, y.src[v]
			if a > b {
				a, b = b, a
			}
			y.offer(bridge{d: y.dist[u] + graph.Dist(ws[i]) + y.dist[v], u: u, v: v, w: ws[i], a: a, b: b})
		}
	}
}

func (y *yardstick) offer(br bridge) {
	if 2*(len(y.used)+1) > len(y.slots) {
		y.growSlots()
	}
	key := uint64(br.a)<<32 | uint64(br.b)
	i := y.probe(key)
	if y.slotStamp[i] != y.epoch {
		y.slotStamp[i] = y.epoch
		y.slots[i] = pairSlot{key: key, b: br}
		y.used = append(y.used, int32(i))
		return
	}
	if cmpBridge(br, y.slots[i].b) < 0 {
		y.slots[i].b = br
	}
}

// probe returns the slot holding key, or the free slot where it belongs.
func (y *yardstick) probe(key uint64) int {
	mask := uint64(len(y.slots) - 1)
	i := (key * 0x9E3779B97F4A7C15 >> 20) & mask
	for y.slotStamp[i] == y.epoch && y.slots[i].key != key {
		i = (i + 1) & mask
	}
	return int(i)
}

func (y *yardstick) growSlots() {
	old := y.slots
	y.slots = make([]pairSlot, 2*len(old))
	y.slotStamp = make([]uint32, 2*len(old))
	for j, oi := range y.used {
		s := old[oi]
		i := y.probe(s.key)
		y.slotStamp[i] = y.epoch
		y.slots[i] = s
		y.used[j] = int32(i)
	}
}

// cmpBridge orders bridges by (d, u, v), the tie-break of the repo's solvers.
func cmpBridge(x, z bridge) int {
	if c := cmp.Compare(x.d, z.d); c != 0 {
		return c
	}
	if c := cmp.Compare(x.u, z.u); c != 0 {
		return c
	}
	return cmp.Compare(x.v, z.v)
}

// kruskal is steps 3–5: minimum spanning tree of the cell-pair graph, then
// each chosen bridge plus the predecessor paths from its endpoints to their
// terminals. Cells' shortest-path subtrees are disjoint and the bridges
// form a tree over the cells, so the union is a tree whose leaves are all
// terminals — Mehlhorn's final MST-and-prune step has nothing left to do.
func (y *yardstick) kruskal(k int) error {
	y.bridges = y.bridges[:0]
	for _, i := range y.used {
		y.bridges = append(y.bridges, y.slots[i].b)
	}
	slices.SortFunc(y.bridges, cmpBridge)
	y.uf = y.uf[:0]
	for i := 0; i < k; i++ {
		y.uf = append(y.uf, int32(i))
	}
	merged := 0
	for _, br := range y.bridges {
		if merged == k-1 {
			break
		}
		ra, rb := y.find(br.a), y.find(br.b)
		if ra == rb {
			continue
		}
		y.uf[ra] = rb
		merged++
		y.tree = append(y.tree, graph.Edge{U: br.u, V: br.v, W: br.w})
		y.walkToTerminal(br.u)
		y.walkToTerminal(br.v)
	}
	if merged != k-1 {
		return fmt.Errorf("yardstick: terminals span %d components", k-merged)
	}
	return nil
}

func (y *yardstick) find(x int32) int32 {
	for y.uf[x] != x {
		y.uf[x] = y.uf[y.uf[x]]
		x = y.uf[x]
	}
	return x
}

func (y *yardstick) walkToTerminal(v graph.VID) {
	for y.walk[v] != y.epoch && y.pred[v] != v {
		y.walk[v] = y.epoch
		p := y.pred[v]
		y.tree = append(y.tree, graph.Edge{U: p, V: v, W: y.predW[v]}.Canon())
		v = p
	}
}
