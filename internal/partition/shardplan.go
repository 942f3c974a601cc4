package partition

import (
	"fmt"

	"dsteiner/internal/graph"
)

// ShardPlan is the blueprint for cutting a graph into per-rank shards: the
// partition's ranges plus the global delegate list whose adjacency is
// striped across all ranks. It is what a multi-process backend exchanges at
// session setup (P+1 bounds and the delegates) so every process can build
// its graph.Shard locally without seeing the full CSR.
type ShardPlan struct {
	part      *Partition
	delegates []graph.VID
}

// NewShardPlan collects the partition's delegate list for g. It fails if
// the partition does not cover exactly the graph's vertex set.
func NewShardPlan(part *Partition, g *graph.Graph) (*ShardPlan, error) {
	n := g.NumVertices()
	if part.NumVertices() != n {
		return nil, fmt.Errorf("partition: plan for %d-vertex partition on %d-vertex graph",
			part.NumVertices(), n)
	}
	p := &ShardPlan{part: part}
	for v := 0; v < n && len(p.delegates) < part.NumDelegates(); v++ {
		if part.IsDelegate(graph.VID(v)) {
			p.delegates = append(p.delegates, graph.VID(v))
		}
	}
	return p, nil
}

// NumRanks returns the partition's rank count P.
func (p *ShardPlan) NumRanks() int { return p.part.NumRanks() }

// Partition returns the partition the plan was built from.
func (p *ShardPlan) Partition() *Partition { return p.part }

// Range returns rank's owned vertex range [lo, hi).
func (p *ShardPlan) Range(rank int) (lo, hi graph.VID) { return p.part.Range(rank) }

// Delegates returns the sorted delegate vertex list (shared: read-only).
func (p *ShardPlan) Delegates() []graph.VID { return p.delegates }

// NumDelegates returns the number of delegate vertices.
func (p *ShardPlan) NumDelegates() int { return len(p.delegates) }

// StateRows reports the control-state slab dimensions for rank: the number
// of owned-vertex rows and of mirror rows, one per delegate the rank does
// not own. The sum is the row count of the rank's voronoi.StateSlab.
func (p *ShardPlan) StateRows(rank int) (owned, mirrored int) {
	lo, hi := p.Range(rank)
	mirrored = len(p.delegates)
	for _, d := range p.delegates {
		if lo <= d && d < hi {
			mirrored--
		}
	}
	return int(hi - lo), mirrored
}

// BuildShards cuts one graph.Shard per rank out of g according to the plan.
func (p *ShardPlan) BuildShards(g *graph.Graph) []*graph.Shard {
	shards := make([]*graph.Shard, p.NumRanks())
	for rank := range shards {
		lo, hi := p.Range(rank)
		shards[rank] = graph.NewShard(g, rank, p.NumRanks(), lo, hi, p.delegates)
	}
	return shards
}
