package experiments

import (
	"fmt"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	"dsteiner/internal/tables"
)

// AblationBSP quantifies the paper's asynchronous-processing design choice
// (§IV, citing [24] and [27]): the same solver run bulk-synchronously. The
// expected shape: async converges in less wall time and fewer messages
// because fresher distance labels suppress redundant relaxations between
// supersteps.
func AblationBSP(cfg Config) ([]tables.Table, error) {
	t := tables.Table{
		Title:  fmt.Sprintf("Ablation: asynchronous vs bulk-synchronous processing (P=%d)", cfg.Ranks),
		Header: []string{"Graph", "|S|", "Mode", "Voronoi", "Total", "Messages"},
	}
	for _, name := range []string{"LVJ", "FRS"} {
		k := 100
		if !contains(cfg.SeedCounts(name), k) {
			continue
		}
		g := cfg.Graph(name)
		seedSet := cfg.Seeds(name, k)
		for _, bsp := range []bool{false, true} {
			mode := "async"
			if bsp {
				mode = "bsp"
			}
			cfg.logf("ablation-bsp: %s mode=%s", name, mode)
			opts := core.Default(cfg.Ranks)
			opts.BSP = bsp
			res, err := core.Solve(g, seedSet, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, itoa(k), mode,
				tables.Seconds(res.Phase(core.PhaseVoronoi).Seconds),
				tables.Seconds(res.TotalSeconds()),
				tables.Count(res.TotalMessages()))
		}
	}
	t.AddNote("paper's premise (from [24],[27]): async beats BSP for distributed shortest paths")
	return []tables.Table{t}, nil
}

// AblationMST quantifies the paper's "sequential MST is sufficient" design
// choice (§III, citing Bader & Cong [18]): time to compute the MST of a
// distance graph G'₁ of growing size with sequential Prim, Kruskal and the
// parallel-style Borůvka. The paper measures ~2s for |S|=10K with
// sequential Prim, negligible against total runtime.
func AblationMST(cfg Config) ([]tables.Table, error) {
	t := tables.Table{
		Title:  "Ablation: MST algorithm on the distance graph G'1",
		Header: []string{"|S|", "|E'1|", "Prim", "Kruskal", "Boruvka", "Boruvka rounds"},
	}
	name := "LVJ"
	g := cfg.Graph(name)
	for _, k := range cfg.SeedCounts(name) {
		seedSet := cfg.Seeds(name, k)
		// Build G'1 once via a 1-rank solve, then time MSTs directly on
		// synthetic distance graphs of the measured size.
		res, err := core.Solve(g, seedSet, core.Default(1))
		if err != nil {
			return nil, err
		}
		edges := makeDistanceGraph(len(seedSet), res.DistGraphEdges)
		t0 := time.Now()
		prim := mst.Prim(len(seedSet), edges)
		primT := time.Since(t0).Seconds()
		t0 = time.Now()
		kru := mst.Kruskal(len(seedSet), edges)
		kruT := time.Since(t0).Seconds()
		t0 = time.Now()
		bor, rounds := mst.Boruvka(len(seedSet), edges)
		borT := time.Since(t0).Seconds()
		if prim.Total != kru.Total || kru.Total != bor.Total {
			return nil, fmt.Errorf("ablation-mst: MST totals disagree")
		}
		t.AddRow(itoa(k), itoa(res.DistGraphEdges),
			tables.Seconds(primT), tables.Seconds(kruT), tables.Seconds(borT),
			itoa(rounds))
	}
	t.AddNote("paper: sequential Prim on the |S|=10K distance graph takes ~2s, negligible overall")
	return []tables.Table{t}, nil
}

// makeDistanceGraph builds a deterministic connected weighted graph with
// the given vertex and edge count, standing in for G'1 in MST timing.
func makeDistanceGraph(n, m int) []mst.WEdge {
	if n < 2 {
		return nil
	}
	edges := make([]mst.WEdge, 0, m)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for v := 1; v < n; v++ {
		edges = append(edges, mst.WEdge{U: int32(next() % uint64(v)), V: int32(v), W: graph.Dist(next()%100000 + 1)})
	}
	for len(edges) < m {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		if u != v {
			edges = append(edges, mst.WEdge{U: u, V: v, W: graph.Dist(next()%100000 + 1)})
		}
	}
	return edges
}
