package partition

import (
	"fmt"

	"dsteiner/internal/graph"
)

// ShardPlan is the blueprint for cutting a graph into per-rank shards: a
// partition checked against the graph it cuts. Its wire form is the P+1
// range bounds a multi-process backend exchanges at session setup, so every
// process can build its graph.Shard locally without seeing the full CSR.
type ShardPlan struct {
	part *Partition
}

// NewShardPlan checks part against g. It fails if the partition does not
// cover exactly the graph's vertex set.
func NewShardPlan(part *Partition, g *graph.Graph) (*ShardPlan, error) {
	if n := g.NumVertices(); part.NumVertices() != n {
		return nil, fmt.Errorf("partition: plan for %d-vertex partition on %d-vertex graph",
			part.NumVertices(), n)
	}
	return &ShardPlan{part: part}, nil
}

// NumRanks returns the partition's rank count P.
func (p *ShardPlan) NumRanks() int { return p.part.NumRanks() }

// Partition returns the partition the plan was built from.
func (p *ShardPlan) Partition() *Partition { return p.part }

// Range returns rank's owned vertex range [lo, hi).
func (p *ShardPlan) Range(rank int) (lo, hi graph.VID) { return p.part.Range(rank) }

// BuildShards cuts one graph.Shard per rank out of g according to the plan.
func (p *ShardPlan) BuildShards(g *graph.Graph) []*graph.Shard {
	shards := make([]*graph.Shard, p.NumRanks())
	for rank := range shards {
		lo, hi := p.Range(rank)
		shards[rank] = graph.NewShard(g, rank, p.NumRanks(), lo, hi)
	}
	return shards
}
