package core

import (
	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// Phase names match the stacked-bar legends of the paper's Figs. 3–6.
const (
	PhaseVoronoi       = "Voronoi Cell"
	PhaseLocalMinEdge  = "Local Min Dist. Edge"
	PhaseGlobalMinEdge = "Global Min Dist. Edge"
	PhaseMST           = "MST"
	PhasePruning       = "Global Edge Pruning"
	PhaseTreeEdge      = "Steiner Tree Edge"
)

// PhaseNames lists the six phases in execution order.
var PhaseNames = []string{
	PhaseVoronoi, PhaseLocalMinEdge, PhaseGlobalMinEdge,
	PhaseMST, PhasePruning, PhaseTreeEdge,
}

// PhaseStat records one phase's wall time and message traffic.
type PhaseStat struct {
	Name    string
	Seconds float64
	// Sent and Processed are visitor-message counts attributable to this
	// phase (collective-based phases show zero, as in Fig. 6's note).
	Sent      int64
	Processed int64
	// MaxRankWork is the largest per-rank processed count — the
	// critical-path work metric used to report machine-independent
	// scaling shape (see docs/ARCHITECTURE.md, substitutions).
	MaxRankWork int64
}

// MemoryStats is the Fig. 8 accounting: bytes for the in-memory graph
// versus bytes for algorithm state (Voronoi arrays, cross-cell edge tables,
// the replicated distance graph and message buffers).
type MemoryStats struct {
	GraphBytes     int64
	ShardBytes     int64 // rank-local CSR slabs, all ranks
	StateBytes     int64 // per-vertex Voronoi state
	EdgeTableBytes int64 // local + merged cross-cell edge tables
	DistGraphBytes int64 // replicated G'₁ + MST per rank
	BufferBytes    int64 // modeled message buffer residency
}

// AlgorithmBytes is the per-query algorithm state: everything except the
// graph substrate (global CSR and per-rank shards).
func (m MemoryStats) AlgorithmBytes() int64 {
	return m.StateBytes + m.EdgeTableBytes + m.DistGraphBytes + m.BufferBytes
}

// TotalBytes is the cluster-wide peak estimate.
func (m MemoryStats) TotalBytes() int64 { return m.GraphBytes + m.ShardBytes + m.AlgorithmBytes() }

// Result is the output of Solve.
type Result struct {
	// Tree is the Steiner tree edge set in canonical order. Empty for a
	// single seed.
	Tree []graph.Edge
	// TotalDistance is D(G_S), the sum of tree edge weights.
	TotalDistance graph.Dist
	// Seeds is the deduplicated, sorted seed set actually solved.
	Seeds []graph.VID
	// SteinerVertices counts tree vertices that are not seeds (S').
	SteinerVertices int
	// Phases holds per-phase timing and message statistics in execution
	// order.
	Phases []PhaseStat
	// Memory is the Fig. 8-style accounting.
	Memory MemoryStats
	// DistGraphEdges is |E'₁|, the number of cross-cell candidate edges
	// after the global merge.
	DistGraphEdges int
	// MSTRounds is the number of fragment-merge rounds.
	MSTRounds int
	// CrossTableBytes is the phase 3–4 merge's encoded payload moved through
	// collectives, summed over ranks (contributed + received); equal on every
	// backend.
	CrossTableBytes int64
	// FragmentMsgs counts fragment-merge records exchanged (routed
	// cross-table entries plus per-round proposals), summed over ranks.
	FragmentMsgs int64
	// Stats is the query's runtime counters record, cluster-wide on the TCP
	// backend (the workers' shares folded with rt.Stats.Add), embedded so
	// its fields read as the Result's own:
	//   - Sent, Processed, Batches: visitor messages and batch deliveries.
	//   - Suppressed: cross-rank relaxation offers the sender dropped because
	//     the best offer the rank had already sent that vertex (its ghost
	//     row) beat them.
	//   - Net: transport traffic attributable to this query, summed over the
	//     worker processes. All zero on the in-process loopback backend.
	rt.Stats

	// Mode is the query mode this result answers (ModeTree for plain
	// Solve calls).
	Mode Mode
	// Groups echoes a forest query's canonical terminal groups, parallel
	// to GroupTrees. Nil outside forest mode.
	Groups [][]graph.VID
	// GroupTrees splits a forest-mode Tree into per-group subtrees,
	// parallel to Groups (a singleton group's entry is empty). Nil
	// outside forest mode.
	GroupTrees [][]graph.Edge
	// Skipped lists the terminals a prize-mode query paid to leave out,
	// sorted ascending. Nil outside prize mode.
	Skipped []graph.VID
	// PaidPenalty is the total penalty paid for Skipped terminals.
	PaidPenalty graph.Dist
	// Objective is the achieved objective value: TotalDistance for tree
	// and forest queries, TotalDistance + PaidPenalty for prize queries.
	Objective graph.Dist
}

// Clone returns a deep copy of res that shares no slices with the receiver.
// A solution cache stores a clone once and serves it to many concurrent
// readers, insulated from whatever the original caller does with its copy;
// a caller that wants to mutate a shared cached Result takes its own clone
// first.
func (res *Result) Clone() *Result {
	if res == nil {
		return nil
	}
	cp := *res
	if res.Tree != nil {
		cp.Tree = append([]graph.Edge(nil), res.Tree...)
	}
	if res.Seeds != nil {
		cp.Seeds = append([]graph.VID(nil), res.Seeds...)
	}
	if res.Phases != nil {
		cp.Phases = append([]PhaseStat(nil), res.Phases...)
	}
	if res.Groups != nil {
		cp.Groups = make([][]graph.VID, len(res.Groups))
		for i, grp := range res.Groups {
			cp.Groups[i] = append([]graph.VID(nil), grp...)
		}
	}
	if res.GroupTrees != nil {
		cp.GroupTrees = make([][]graph.Edge, len(res.GroupTrees))
		for i, t := range res.GroupTrees {
			cp.GroupTrees[i] = append([]graph.Edge(nil), t...)
		}
	}
	if res.Skipped != nil {
		cp.Skipped = append([]graph.VID(nil), res.Skipped...)
	}
	return &cp
}

// Phase returns the named phase's stats (zero value if missing).
func (res *Result) Phase(name string) PhaseStat {
	for _, p := range res.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStat{Name: name}
}

// TotalSeconds sums all phase times.
func (res *Result) TotalSeconds() float64 {
	var s float64
	for _, p := range res.Phases {
		s += p.Seconds
	}
	return s
}

// TotalMessages sums sent messages across phases.
func (res *Result) TotalMessages() int64 {
	var s int64
	for _, p := range res.Phases {
		s += p.Sent
	}
	return s
}
