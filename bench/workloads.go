package main

import (
	"encoding/json"
	"math/rand"
	"slices"

	"dsteiner/internal/core"
	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	"dsteiner/internal/steinersvc"
)

// ranks is the rank count of every system under test: nproc of the
// reference box, so no workload runs more busy goroutines than cores.
const ranks = 2

// query is one request of a workload. The system under test sees spec (or
// body, its POST /v1/solve form); the yardstick sees terms, the union of the
// spec's terminals. The unexported tail is the checker's memory of the query.
type query struct {
	spec  core.QuerySpec
	terms []graph.VID
	body  []byte

	yardWeight  graph.Dist // yardstick tree weight, set on first yardstick solve
	objective   graph.Dist // the system's objective, set on first answer
	firstDigest string     // digest of the system's first correct answer
	asked       bool
}

// workload is one row of the benchmark: a generated graph, a system under
// test, and the chunk of requests each instance of that system is sent.
type workload struct {
	name    string
	why     string
	backend string // "inproc", "tcp" or "http": how the system under test is reached
	clients int    // closed-loop clients sharing a round's requests
	graph   func(seed int64, tiny bool) gen.Config
	// plan draws the workload's requests from rng. prime is what every
	// system instance is sent first, untimed: prime[0] is the cold query
	// that ends set-up, and being the same for every instance it is also
	// where an answer that changes between instances shows. next draws the
	// chunk the next instance is timed on, never-seen requests each time.
	plan func(g *graph.Graph, rng *rand.Rand, tiny bool) (prime []*query, next func() []*query)
}

// Graph sizes and chunks are fixed here; -seconds, which decides how many
// instances a run measures, is the only size knob. The tiny variants exist
// for the smoke test alone.
var workloads = []*workload{
	{
		name:    "traverse-inproc",
		why:     "0.5M-arc R-MAT, 16 terminals, in-process engine: phases 1-2 are >99% of the solve, so a runtime/pq/voronoi change shows here and a wire/transport/mst/steinersvc change does not",
		backend: "inproc",
		clients: 1,
		graph:   traverseGraph,
		plan:    traversePlan,
	},
	{
		name:    "traverse-tcp",
		why:     "same graph and queries over two rankd sessions on loopback sockets: identical compute plus wire codec, hub/peer sockets and token termination; its ratio to traverse-inproc is the transport tax",
		backend: "tcp",
		clients: 1,
		graph:   traverseGraph,
		plan:    traversePlan,
	},
	{
		name:    "grid-manyterm-modes",
		why:     "tie-heavy 128x256 grid, thousands of terminals, tree/forest/prize modes: cross-edge table, reduction, MST, pruning and tree walk carry 15-65% of a solve instead of <1%",
		backend: "inproc",
		clients: 1,
		graph: func(seed int64, tiny bool) gen.Config {
			rows, cols := 128, 256
			if tiny {
				rows, cols = 24, 48
			}
			return gen.Config{Name: "grid", Kind: gen.KindGrid2D, N: rows * cols, Rows: rows, Cols: cols,
				MaxWeight: 100, Seed: seed}
		},
		plan: gridPlan,
	},
	{
		name:    "service-http",
		why:     "small mixed queries over POST /v1/solve, two keep-alive clients, 30% repeats: JSON, canonicalisation, cache, single-flight and engine checkout are the largest share they will ever be",
		backend: "http",
		clients: 2,
		graph: func(seed int64, tiny bool) gen.Config {
			c := gen.MustDataset("LVJ").Config
			if tiny {
				c.N = 1 << 10
			}
			c.Seed = seed
			return c
		},
		plan: servicePlan,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func traverseGraph(seed int64, tiny bool) gen.Config {
	n := 1 << 15
	if tiny {
		n = 1 << 11
	}
	return gen.Config{Name: "rmat", Kind: gen.KindRMAT, N: n, AvgDegree: 16, MaxWeight: 5000,
		Backbone: true, Seed: seed}
}

// traversePlan is two tree queries of 16 uniform-random terminals per
// instance, after a cold one: a solve takes a third of a second, and many
// instances steady a run more than many queries on few.
func traversePlan(g *graph.Graph, rng *rand.Rand, _ bool) ([]*query, func() []*query) {
	draw := func() *query { return treeQuery(pickDistinct(rng, g.NumVertices(), 16)) }
	return []*query{draw()}, func() []*query { return []*query{draw(), draw()} }
}

// gridPlan is 2 tree (k=2048), 2 forest (512 star groups) and 1 prize
// (k=1024, penalties below 400) queries per instance.
func gridPlan(g *graph.Graph, rng *rand.Rand, tiny bool) ([]*query, func() []*query) {
	kTree, nGroups, kPrize := 2048, 512, 1024
	if tiny {
		kTree, nGroups, kPrize = 64, 16, 32
	}
	n := g.NumVertices()
	tree := func() *query { return treeQuery(pickDistinct(rng, n, kTree)) }
	next := func() []*query {
		var chunk []*query
		for i := 0; i < 2; i++ {
			chunk = append(chunk, tree(), forestQuery(starGroups(g, rng, nGroups)))
		}
		return append(chunk, prizeQuery(pickDistinct(rng, n, kPrize), rng, 400))
	}
	return []*query{tree()}, next
}

// servicePlan is the interactive mix: an instance is sent 10 requests in
// random order, 7 of them specs the service has never seen (5 tree, 1 forest,
// 1 prize) and 3 drawn from a 4-spec hot set that prime has already put in
// its cache.
func servicePlan(g *graph.Graph, rng *rand.Rand, _ bool) ([]*query, func() []*query) {
	n := g.NumVertices()
	_, maxW := g.WeightRange()
	fresh := func(kind int) *query {
		switch kind {
		case 0:
			return treeQuery(pickDistinct(rng, n, 8))
		case 1:
			return forestQuery(starGroups(g, rng, 4))
		default:
			return prizeQuery(pickDistinct(rng, n, 8), rng, int64(maxW))
		}
	}
	hot := []*query{fresh(0), fresh(0), fresh(1), fresh(2)}
	next := func() []*query {
		c := []*query{fresh(0), fresh(0), fresh(0), fresh(0), fresh(0), fresh(1), fresh(2)}
		for i := 0; i < 3; i++ {
			c = append(c, hot[rng.Intn(len(hot))])
		}
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		return c
	}
	return hot, next
}

// pickDistinct draws k distinct vertices uniformly. Every workload graph is
// connected by construction (backbone or grid), so any set is solvable.
func pickDistinct(rng *rand.Rand, n, k int) []graph.VID {
	taken := make(map[graph.VID]bool, k)
	out := make([]graph.VID, 0, k)
	for len(out) < k {
		v := graph.VID(rng.Intn(n))
		if !taken[v] {
			taken[v] = true
			out = append(out, v)
		}
	}
	return out
}

// starGroups draws disjoint forest groups that are always feasible: a random
// centre plus up to three of its neighbours.
func starGroups(g *graph.Graph, rng *rand.Rand, count int) [][]graph.VID {
	taken := map[graph.VID]bool{}
	groups := make([][]graph.VID, 0, count)
	for len(groups) < count {
		c := graph.VID(rng.Intn(g.NumVertices()))
		if taken[c] {
			continue
		}
		grp := []graph.VID{c}
		nbrs, _ := g.Adj(c)
		for _, i := range rng.Perm(len(nbrs)) {
			if u := nbrs[i]; len(grp) < 4 && u != c && !taken[u] && !slices.Contains(grp, u) {
				grp = append(grp, u)
			}
		}
		if len(grp) < 2 {
			continue
		}
		for _, v := range grp {
			taken[v] = true
		}
		groups = append(groups, grp)
	}
	return groups
}

func treeQuery(seeds []graph.VID) *query {
	return newQuery(core.TreeSpec(seeds), seeds)
}

func forestQuery(groups [][]graph.VID) *query {
	var terms []graph.VID
	for _, grp := range groups {
		terms = append(terms, grp...)
	}
	return newQuery(core.QuerySpec{Mode: core.ModeForest, Groups: groups}, terms)
}

func prizeQuery(seeds []graph.VID, rng *rand.Rand, maxPenalty int64) *query {
	pen := make([]graph.Dist, len(seeds))
	for i := range pen {
		pen[i] = graph.Dist(rng.Int63n(maxPenalty))
	}
	return newQuery(core.QuerySpec{Mode: core.ModePrize, Seeds: seeds, Penalties: pen}, seeds)
}

func newQuery(spec core.QuerySpec, terms []graph.VID) *query {
	req := steinersvc.SolveRequest{Mode: spec.Mode.String()}
	for _, s := range spec.Seeds {
		req.Seeds = append(req.Seeds, int32(s))
	}
	for _, grp := range spec.Groups {
		g32 := make([]int32, len(grp))
		for i, v := range grp {
			g32[i] = int32(v)
		}
		req.Groups = append(req.Groups, g32)
	}
	for _, p := range spec.Penalties {
		req.Penalties = append(req.Penalties, int64(p))
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain ints and strings always marshal
	}
	return &query{spec: spec, terms: terms, body: body}
}
