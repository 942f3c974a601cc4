package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// checkAnswer decides whether a is a correct answer to q on g. It runs
// outside every timed region. The first answer to a query is remembered and
// every later one must be byte-identical to it. q.yardWeight must be set.
func checkAnswer(g *graph.Graph, q *query, a answer) error {
	if a.mode != q.spec.Mode {
		return fmt.Errorf("answered in %v mode, asked in %v", a.mode, q.spec.Mode)
	}
	var weight graph.Dist
	for _, e := range a.tree {
		weight += graph.Dist(e.W)
	}
	switch q.spec.Mode {
	case core.ModeTree:
		if err := graph.ValidateSteinerTree(g, q.spec.Seeds, a.tree); err != nil {
			return err
		}
		if a.objective != weight {
			return fmt.Errorf("objective %d != tree weight %d", a.objective, weight)
		}
		// Both trees are 2-approximations of the same optimum.
		if a.objective > 2*q.yardWeight {
			return fmt.Errorf("objective %d > 2 x yardstick %d", a.objective, q.yardWeight)
		}
	case core.ModeForest:
		if err := checkForest(g, q.spec.Groups, a.tree); err != nil {
			return err
		}
		if a.objective != weight {
			return fmt.Errorf("objective %d != forest weight %d", a.objective, weight)
		}
	case core.ModePrize:
		skipped := make(map[graph.VID]bool, len(a.skipped))
		for _, v := range a.skipped {
			skipped[v] = true
		}
		var kept []graph.VID
		paid := graph.Dist(0)
		for i, s := range q.spec.Seeds {
			if skipped[s] {
				paid += q.spec.Penalties[i]
				delete(skipped, s)
			} else {
				kept = append(kept, s)
			}
		}
		if len(skipped) != 0 {
			return fmt.Errorf("skipped %d vertices that are not terminals", len(skipped))
		}
		if len(kept) == 0 {
			return fmt.Errorf("prize answer kept no terminal")
		}
		if err := graph.ValidateSteinerTree(g, kept, a.tree); err != nil {
			return err
		}
		if a.objective != weight+paid {
			return fmt.Errorf("objective %d != tree weight %d + paid penalties %d", a.objective, weight, paid)
		}
	}
	d := digest(a)
	if q.firstDigest == "" {
		q.firstDigest, q.objective = d, a.objective
	} else if d != q.firstDigest {
		return fmt.Errorf("answer differs from the first answer to the same query")
	}
	return nil
}

// checkForest verifies the Steiner-forest conditions: real edges, no
// cycle, every group inside one component, every component holding exactly
// one group.
func checkForest(g *graph.Graph, groups [][]graph.VID, tree []graph.Edge) error {
	idx := map[graph.VID]int32{}
	var uf []int32
	id := func(v graph.VID) int32 {
		i, ok := idx[v]
		if !ok {
			i = int32(len(uf))
			idx[v] = i
			uf = append(uf, i)
		}
		return i
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for _, e := range tree {
		if w, ok := g.HasEdge(e.U, e.V); !ok || w != e.W {
			return fmt.Errorf("edge (%d,%d,%d) is not in the graph", e.U, e.V, e.W)
		}
		ru, rv := find(id(e.U)), find(id(e.V))
		if ru == rv {
			return fmt.Errorf("edge (%d,%d) closes a cycle", e.U, e.V)
		}
		uf[ru] = rv
	}
	owner := map[int32]int{}
	for gi, grp := range groups {
		root := find(id(grp[0]))
		for _, t := range grp[1:] {
			if find(id(t)) != root {
				return fmt.Errorf("group %d is not connected", gi)
			}
		}
		if prev, ok := owner[root]; ok {
			return fmt.Errorf("an edge joins groups %d and %d", prev, gi)
		}
		owner[root] = gi
	}
	for _, i := range idx {
		if _, ok := owner[find(i)]; !ok {
			return fmt.Errorf("a component of the forest holds no group")
		}
	}
	return nil
}

// digest is a fingerprint of an answer as delivered: mode, objective,
// skipped terminals and the edges in the order the system returned them.
func digest(a answer) string {
	h := sha256.New()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	put(int64(a.mode))
	put(int64(a.objective))
	put(int64(len(a.skipped)))
	for _, v := range a.skipped {
		put(int64(v))
	}
	for _, e := range a.tree {
		put(int64(e.U))
		put(int64(e.V))
		put(int64(e.W))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
