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

// ErrQueryShape marks a query whose fields do not fit its mode: terminal
// fields of another mode, no terminals, an empty forest group, a penalty
// count that differs from the seed count, a negative penalty or an unknown
// mode. Like ErrDuplicateSeed it is the caller's mistake, whatever the
// graph (internal/steinersvc maps it to HTTP 400); a seed outside the graph
// is not a shape error.
var ErrQueryShape = errors.New("malformed query")

// shapeErrorf formats a query-shape error wrapping ErrQueryShape.
func shapeErrorf(format string, args ...any) error {
	return fmt.Errorf("core: %w: "+format, append([]any{ErrQueryShape}, args...)...)
}

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
// across groups (ErrDuplicateSeed). All returned slices are freshly
// allocated, so they may be published in a Result without aliasing pooled
// state.
func canonSpec(n int, spec QuerySpec) (canonQuery, error) {
	switch spec.Mode {
	case ModeTree:
		if len(spec.Groups) > 0 {
			return canonQuery{}, shapeErrorf("tree query must not set groups")
		}
		if len(spec.Penalties) > 0 {
			return canonQuery{}, shapeErrorf("tree query must not set penalties")
		}
		dedup, _, err := canonSeedSet(n, spec.Seeds)
		if err != nil {
			return canonQuery{}, err
		}
		return canonQuery{spec: QuerySpec{Mode: ModeTree, Seeds: dedup}, dedup: dedup}, nil

	case ModeForest:
		if len(spec.Seeds) > 0 || len(spec.Penalties) > 0 {
			return canonQuery{}, shapeErrorf("forest query takes groups, not seeds or penalties")
		}
		if len(spec.Groups) == 0 {
			return canonQuery{}, shapeErrorf("forest query needs at least one terminal group")
		}
		dedup, tags, err := sortedTerminals(n, spec.Groups, true)
		if err != nil {
			return canonQuery{}, err
		}
		// In terminal order every group fills sorted, and the groups come up
		// in order of their smallest terminal: the canonical group order.
		// canon[gi] is 1 + input group gi's canonical index, which then
		// replaces gi in tags.
		canon := make([]int32, len(spec.Groups))
		groups := make([][]graph.VID, 0, len(spec.Groups))
		for i, gi := range tags {
			if canon[gi] == 0 {
				groups = append(groups, make([]graph.VID, 0, len(spec.Groups[gi])))
				canon[gi] = int32(len(groups))
			}
			c := canon[gi] - 1
			groups[c] = append(groups[c], dedup[i])
			tags[i] = c
		}
		return canonQuery{
			spec:    QuerySpec{Mode: ModeForest, Groups: groups},
			dedup:   dedup,
			groupOf: tags,
		}, nil

	case ModePrize:
		if len(spec.Groups) > 0 {
			return canonQuery{}, shapeErrorf("prize query takes seeds, not groups")
		}
		if len(spec.Penalties) != len(spec.Seeds) {
			return canonQuery{}, shapeErrorf("prize query needs one penalty per seed (%d penalties for %d seeds)",
				len(spec.Penalties), len(spec.Seeds))
		}
		sum := graph.Dist(0)
		for i, p := range spec.Penalties {
			if p < 0 {
				return canonQuery{}, shapeErrorf("negative penalty %d for seed %d", p, spec.Seeds[i])
			}
			if p > MaxPenaltySum-sum {
				return canonQuery{}, fmt.Errorf("core: %w (%d)", ErrPenaltySum, MaxPenaltySum)
			}
			sum += p
		}
		dedup, pos, err := canonSeedSet(n, spec.Seeds)
		if err != nil {
			return canonQuery{}, err
		}
		penalty := make([]graph.Dist, len(dedup)) // co-sorted with the seeds
		for i, p := range pos {
			penalty[i] = spec.Penalties[p]
		}
		return canonQuery{
			spec:    QuerySpec{Mode: ModePrize, Seeds: dedup, Penalties: penalty},
			dedup:   dedup,
			penalty: penalty,
		}, nil
	}
	return canonQuery{}, shapeErrorf("unknown query mode %d", spec.Mode)
}

// sortedTerminals validates the terminals of groups against an n-vertex
// graph and returns them sorted ascending, each with its tag: its group's
// index when byGroup is set, else its position in its group. One radix sort
// of (terminal, tag) words orders them, and duplicates are found next to
// each other. Only a query that fails rescans its input, in input order
// (terminalError), so the error names the same terminal or group an
// input-order scan would.
func sortedTerminals(n int, groups [][]graph.VID, byGroup bool) ([]graph.VID, []int32, error) {
	total := 0
	for _, grp := range groups {
		total += len(grp)
	}
	words := make([]uint64, 0, total)
	for gi, grp := range groups {
		if len(grp) == 0 {
			return nil, nil, terminalError(n, groups)
		}
		for i, s := range grp {
			if s < 0 || int(s) >= n {
				return nil, nil, terminalError(n, groups)
			}
			tag := i
			if byGroup {
				tag = gi
			}
			words = append(words, uint64(s)<<32|uint64(tag))
		}
	}
	var scratch []uint64
	graph.SortByKey(words, &scratch, func(w uint64) uint64 { return w })
	terms, tags := make([]graph.VID, total), make([]int32, total)
	for i, w := range words {
		if i > 0 && w>>32 == words[i-1]>>32 {
			return nil, nil, terminalError(n, groups)
		}
		terms[i], tags[i] = graph.VID(w>>32), int32(uint32(w))
	}
	return terms, tags, nil
}

// terminalError scans groups in input order and returns the first fault: an
// empty group, a terminal outside [0, n) or one seen before (ErrDuplicateSeed).
func terminalError(n int, groups [][]graph.VID) error {
	seen := make(map[graph.VID]bool)
	for gi, grp := range groups {
		if len(grp) == 0 {
			return shapeErrorf("forest group %d is empty", gi)
		}
		for _, s := range grp {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("core: seed %d out of range [0,%d)", s, n)
			}
			if seen[s] {
				return fmt.Errorf("core: %w: %d appears more than once", ErrDuplicateSeed, s)
			}
			seen[s] = true
		}
	}
	return nil
}

// CanonicalSpec validates spec against an n-vertex graph and returns its
// canonical form: seeds (and penalties) sorted, groups sorted internally and
// ordered by smallest terminal. Two specs describing the same query always
// canonicalize to identical values, and specs of different modes never do —
// serving layers key solution caches on this form.
func CanonicalSpec(n int, spec QuerySpec) (QuerySpec, error) {
	cq, err := canonSpec(n, spec)
	if err != nil {
		return QuerySpec{}, err
	}
	return cq.spec, nil
}

// finalizeResult derives the mode-specific outputs from the assembled tree
// — per-group subtrees for forest, paid penalties and the achieved
// objective for prize — counts the Steiner vertices and runs mode-aware
// validation. It is shared by the loopback path and the TCP coordinator
// path, so both backends publish identical Results from identical trees.
func finalizeResult(g *graph.Graph, cq canonQuery, res *Result) error {
	res.Mode = cq.spec.Mode
	// check validates one tree over the terminals it must span and counts
	// its Steiner vertices: a tree has one vertex more than it has edges, and
	// every terminal it spans is one of them.
	check := func(terms []graph.VID, tree []graph.Edge) error {
		if len(tree) > 0 {
			res.SteinerVertices += len(tree) + 1 - len(terms)
		}
		return graph.ValidateSteinerTree(g, terms, tree)
	}
	switch cq.spec.Mode {
	case ModeForest:
		res.Groups = cq.spec.Groups
		trees, err := graph.ValidateSteinerForest(g, cq.spec.Groups, res.Tree)
		if err != nil {
			return fmt.Errorf("core: internal error, invalid output: %w", err)
		}
		res.GroupTrees = trees
		res.Objective = res.TotalDistance
		for gi, tree := range trees {
			if len(tree) > 0 {
				res.SteinerVertices += len(tree) + 1 - len(cq.spec.Groups[gi])
			}
		}
	case ModePrize:
		// Skipped is a sorted subset of the sorted terminals.
		kept := make([]graph.VID, 0, len(cq.dedup)-len(res.Skipped))
		res.PaidPenalty = 0
		skipped := res.Skipped
		for i, s := range cq.dedup {
			if len(skipped) > 0 && skipped[0] == s {
				res.PaidPenalty += cq.penalty[i]
				skipped = skipped[1:]
			} else {
				kept = append(kept, s)
			}
		}
		res.Objective = res.TotalDistance + res.PaidPenalty
		if len(kept) == 0 {
			return fmt.Errorf("core: internal error, prize query kept no terminal")
		}
		if err := check(kept, res.Tree); err != nil {
			return fmt.Errorf("core: internal error, invalid output: %w", err)
		}
	default:
		res.Objective = res.TotalDistance
		if err := check(cq.dedup, res.Tree); err != nil {
			return fmt.Errorf("core: internal error, invalid output: %w", err)
		}
	}
	return nil
}
