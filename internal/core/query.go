// Query modes: the solver's phase 1–6 machinery (Voronoi flood, distance
// offers, component merging) is mode-agnostic, and QuerySpec generalizes the
// original single-terminal-set query into a small family of connectivity
// products served by one resident graph:
//
//   - ModeTree: the paper's query — one terminal set, one spanning tree.
//   - ModeForest: Steiner Forest (cf. Lenzen & Patt-Shamir, arXiv:1405.2011)
//     — terminal *groups*, each internally connected, never across groups.
//     The shared Voronoi/offer phases run once; the merge phase excludes
//     cross-group candidate edges and connects each group independently.
//   - ModePrize: prize-collecting Steiner tree (cf. the primal-dual scheme
//     of Saikia & Karmakar, arXiv:1710.07040) — each terminal carries a
//     penalty the solver may pay to leave it out of the tree; a
//     moat-growing pass over the collected component structure decides
//     which terminals to connect and which to skip.
package core

import (
	"errors"
	"fmt"
	"sort"

	"dsteiner/internal/graph"
)

// Mode selects the connectivity product a query asks of the resident graph.
type Mode uint8

const (
	// ModeTree is the classic single-set Steiner tree query (the zero
	// value, so a zero QuerySpec with Seeds behaves like Engine.Solve).
	ModeTree Mode = iota
	// ModeForest is the Steiner Forest query over terminal groups.
	ModeForest
	// ModePrize is the prize-collecting query with per-terminal penalties.
	ModePrize
)

// String returns the mode's wire/API name: "tree", "forest" or "prize".
func (m Mode) String() string {
	switch m {
	case ModeForest:
		return "forest"
	case ModePrize:
		return "prize"
	default:
		return "tree"
	}
}

// ParseMode maps "tree" (or ""), "forest" and "prize" to the Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "tree":
		return ModeTree, nil
	case "forest":
		return ModeForest, nil
	case "prize":
		return ModePrize, nil
	}
	return ModeTree, fmt.Errorf("core: unknown query mode %q (want tree, forest or prize)", s)
}

// QuerySpec is the single query type threaded through the whole stack —
// Engine, wire protocol, HTTP service and CLIs. Exactly one terminal field
// is used per mode: Seeds for tree and prize queries, Groups for forest
// queries. Penalties pairs index-wise with Seeds on prize queries.
type QuerySpec struct {
	// Mode selects tree, forest or prize semantics.
	Mode Mode
	// Seeds is the terminal set of tree and prize queries.
	Seeds []graph.VID
	// Groups is the terminal grouping of forest queries: every group must
	// end up internally connected; no tree edge may join two groups.
	Groups [][]graph.VID
	// Penalties holds one non-negative penalty per Seeds entry on prize
	// queries: the cost of leaving that terminal out of the tree. They may
	// sum to at most MaxPenaltySum.
	Penalties []graph.Dist
}

// MaxPenaltySum, 2^60, bounds a prize query's penalty total P so that the
// moat growth (growMoats) stays inside int64, given distance-graph weights W
// below graph.InfDist < 2^61: doubled budgets and their sums are ≤ 2P; each
// event spends the same amount from two or more active moats out of 2P, so
// the clock and every doubled dual stay ≤ P; slack2 = 2W − y2(U) − y2(V)
// lies in [−2^61, 2^62), so the scaled key 2·slack2 < 2^63; keys saturate
// at 2P + 1 (no larger key can win), so a due value 2·clock + key is at
// most 4P + 1 < 2^63. TotalDistance + PaidPenalty then fits whenever the
// tree weighs under 2^63 − 2^60.
const MaxPenaltySum graph.Dist = 1 << 60

// ErrPenaltySum marks a prize query whose penalties sum past MaxPenaltySum.
var ErrPenaltySum = errors.New("prize penalties sum past MaxPenaltySum")

// TreeSpec wraps a plain terminal set in a tree-mode QuerySpec.
func TreeSpec(seeds []graph.VID) QuerySpec {
	return QuerySpec{Mode: ModeTree, Seeds: seeds}
}

// canonQuery is a validated query in solver form: the canonical spec plus
// the flattened terminal universe the SPMD phases run over. dedup is the
// sorted union of all terminals; groupOf and penalty are parallel to dedup
// (nil outside their mode). Every rank — loopback goroutine or remote rankd
// process — derives the identical flattening from the canonical spec, so
// dense terminal indices agree fleet-wide.
type canonQuery struct {
	spec    QuerySpec
	dedup   []graph.VID
	groupOf []int32
	penalty []graph.Dist
}

// canonSpec validates spec against an n-vertex graph and returns its
// canonical solver form. Canonicalization rules: seeds sorted ascending
// (penalties co-sorted); each forest group sorted ascending, groups ordered
// by their smallest terminal. The same terminal may not appear twice, in or
// across groups (ErrDuplicateSeed). seen is the duplicate-check scratch
// (cleared first); all returned slices are freshly allocated, so they may be
// published in a Result without aliasing pooled state.
func canonSpec(n int, spec QuerySpec, seen map[graph.VID]bool) (canonQuery, error) {
	switch spec.Mode {
	case ModeTree:
		if len(spec.Groups) > 0 {
			return canonQuery{}, fmt.Errorf("core: tree query must not set groups")
		}
		if len(spec.Penalties) > 0 {
			return canonQuery{}, fmt.Errorf("core: tree query must not set penalties")
		}
		dedup, err := canonSeedSet(n, spec.Seeds, seen)
		if err != nil {
			return canonQuery{}, err
		}
		return canonQuery{spec: QuerySpec{Mode: ModeTree, Seeds: dedup}, dedup: dedup}, nil

	case ModeForest:
		if len(spec.Seeds) > 0 || len(spec.Penalties) > 0 {
			return canonQuery{}, fmt.Errorf("core: forest query takes groups, not seeds or penalties")
		}
		if len(spec.Groups) == 0 {
			return canonQuery{}, fmt.Errorf("core: forest query needs at least one terminal group")
		}
		clear(seen)
		total := 0
		groups := make([][]graph.VID, len(spec.Groups))
		for gi, grp := range spec.Groups {
			if len(grp) == 0 {
				return canonQuery{}, fmt.Errorf("core: forest group %d is empty", gi)
			}
			cg := make([]graph.VID, 0, len(grp))
			for _, s := range grp {
				if s < 0 || int(s) >= n {
					return canonQuery{}, fmt.Errorf("core: seed %d out of range [0,%d)", s, n)
				}
				if seen[s] {
					return canonQuery{}, fmt.Errorf("core: %w: %d appears more than once", ErrDuplicateSeed, s)
				}
				seen[s] = true
				cg = append(cg, s)
			}
			sort.Slice(cg, func(i, j int) bool { return cg[i] < cg[j] })
			groups[gi] = cg
			total += len(cg)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
		// Merge the sorted groups into the sorted terminal union; groups
		// are disjoint, so a flat sort of (vid, group) pairs suffices.
		type tagged struct {
			v graph.VID
			g int32
		}
		all := make([]tagged, 0, total)
		for gi, grp := range groups {
			for _, s := range grp {
				all = append(all, tagged{s, int32(gi)})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
		dedup := make([]graph.VID, len(all))
		groupOf := make([]int32, len(all))
		for i, t := range all {
			dedup[i] = t.v
			groupOf[i] = t.g
		}
		return canonQuery{
			spec:    QuerySpec{Mode: ModeForest, Groups: groups},
			dedup:   dedup,
			groupOf: groupOf,
		}, nil

	case ModePrize:
		if len(spec.Groups) > 0 {
			return canonQuery{}, fmt.Errorf("core: prize query takes seeds, not groups")
		}
		if len(spec.Penalties) != len(spec.Seeds) {
			return canonQuery{}, fmt.Errorf("core: prize query needs one penalty per seed (%d penalties for %d seeds)",
				len(spec.Penalties), len(spec.Seeds))
		}
		sum := graph.Dist(0)
		for i, p := range spec.Penalties {
			if p < 0 {
				return canonQuery{}, fmt.Errorf("core: negative penalty %d for seed %d", p, spec.Seeds[i])
			}
			if p > MaxPenaltySum-sum {
				return canonQuery{}, fmt.Errorf("core: %w (%d)", ErrPenaltySum, MaxPenaltySum)
			}
			sum += p
		}
		dedup, err := canonSeedSet(n, spec.Seeds, seen)
		if err != nil {
			return canonQuery{}, err
		}
		// Co-sort penalties with the canonical seed order. Seeds are
		// duplicate-free, so a vid→penalty map is unambiguous.
		byVID := make(map[graph.VID]graph.Dist, len(spec.Seeds))
		for i, s := range spec.Seeds {
			byVID[s] = spec.Penalties[i]
		}
		penalty := make([]graph.Dist, len(dedup))
		for i, s := range dedup {
			penalty[i] = byVID[s]
		}
		return canonQuery{
			spec:    QuerySpec{Mode: ModePrize, Seeds: dedup, Penalties: penalty},
			dedup:   dedup,
			penalty: penalty,
		}, nil
	}
	return canonQuery{}, fmt.Errorf("core: unknown query mode %d", spec.Mode)
}

// CanonicalSpec validates spec against an n-vertex graph and returns its
// canonical form: seeds (and penalties) sorted, groups sorted internally and
// ordered by smallest terminal. Two specs describing the same query always
// canonicalize to identical values, and specs of different modes never do —
// serving layers key solution caches on this form.
func CanonicalSpec(n int, spec QuerySpec) (QuerySpec, error) {
	cq, err := canonSpec(n, spec, make(map[graph.VID]bool, len(spec.Seeds)))
	if err != nil {
		return QuerySpec{}, err
	}
	return cq.spec, nil
}

// finalizeResult derives the mode-specific outputs from the assembled tree
// — per-group subtrees for forest, paid penalties and the achieved
// objective for prize — and runs mode-aware validation. It is shared by the
// loopback path and the TCP coordinator path, so both backends publish
// identical Results from identical trees.
func finalizeResult(g *graph.Graph, cq canonQuery, res *Result, skipValidation bool) error {
	res.Mode = cq.spec.Mode
	switch cq.spec.Mode {
	case ModeForest:
		res.Groups = cq.spec.Groups
		trees, err := splitGroupTrees(cq.spec.Groups, res.Tree)
		if err != nil {
			return fmt.Errorf("core: internal error, invalid output: %v", err)
		}
		res.GroupTrees = trees
		res.Objective = res.TotalDistance
		if !skipValidation {
			for gi, grp := range cq.spec.Groups {
				if err := graph.ValidateSteinerTree(g, grp, trees[gi]); err != nil {
					return fmt.Errorf("core: internal error, invalid group %d subtree: %w", gi, err)
				}
			}
		}
	case ModePrize:
		skipped := make(map[graph.VID]bool, len(res.Skipped))
		for _, s := range res.Skipped {
			skipped[s] = true
		}
		kept := make([]graph.VID, 0, len(cq.dedup)-len(res.Skipped))
		res.PaidPenalty = 0
		for i, s := range cq.dedup {
			if skipped[s] {
				res.PaidPenalty += cq.penalty[i]
			} else {
				kept = append(kept, s)
			}
		}
		res.Objective = res.TotalDistance + res.PaidPenalty
		if !skipValidation {
			if len(kept) == 0 {
				return fmt.Errorf("core: internal error, prize query kept no terminal")
			}
			if err := graph.ValidateSteinerTree(g, kept, res.Tree); err != nil {
				return fmt.Errorf("core: internal error, invalid output: %w", err)
			}
		}
	default:
		res.Objective = res.TotalDistance
		if !skipValidation {
			if err := graph.ValidateSteinerTree(g, cq.dedup, res.Tree); err != nil {
				return fmt.Errorf("core: internal error, invalid output: %w", err)
			}
		}
	}
	return nil
}

// splitGroupTrees partitions a forest-mode result tree into per-group edge
// lists, parallel to the canonical groups. The tree's connected components
// are each claimed by the group whose terminals they contain; a component
// touching two groups, or none, is a solver bug and returns an error.
func splitGroupTrees(groups [][]graph.VID, tree []graph.Edge) ([][]graph.Edge, error) {
	idx := make(map[graph.VID]int, 2*len(tree))
	for _, e := range tree {
		for _, v := range [2]graph.VID{e.U, e.V} {
			if _, ok := idx[v]; !ok {
				idx[v] = len(idx)
			}
		}
	}
	parent := make([]int, len(idx))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range tree {
		ru, rv := find(idx[e.U]), find(idx[e.V])
		if ru != rv {
			parent[ru] = rv
		}
	}
	compGroup := make(map[int]int, len(groups))
	for gi, grp := range groups {
		for _, t := range grp {
			j, ok := idx[t]
			if !ok {
				continue // singleton group: no tree vertices needed
			}
			r := find(j)
			if prev, claimed := compGroup[r]; claimed && prev != gi {
				return nil, fmt.Errorf("tree component joins groups %d and %d", prev, gi)
			}
			compGroup[r] = gi
		}
	}
	out := make([][]graph.Edge, len(groups))
	for _, e := range tree {
		gi, ok := compGroup[find(idx[e.U])]
		if !ok {
			return nil, fmt.Errorf("tree component through %d-%d contains no terminal", e.U, e.V)
		}
		out[gi] = append(out[gi], e)
	}
	return out, nil
}
