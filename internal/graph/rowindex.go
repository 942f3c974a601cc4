package graph

// RowIndex is the vertex→row mapping shared by every rank-local slab: a
// Shard uses it to find a vertex's adjacency row, a control-state slab
// (internal/voronoi.StateSlab) to find the same vertex's state row. A rank
// owns one contiguous vertex range [lo, lo+count) of its partition, so row i
// holds vertex lo+i and the index is two numbers.
type RowIndex struct {
	lo    VID
	count int32
}

// NewRowIndex returns the index of the owned range [lo, hi).
func NewRowIndex(lo, hi VID) RowIndex { return RowIndex{lo: lo, count: int32(hi - lo)} }

// Len returns the number of vertices the index covers.
func (ix RowIndex) Len() int { return int(ix.count) }

// Row returns v's row, or -1 when v is outside the owned range.
func (ix RowIndex) Row(v VID) int32 {
	if d := int64(v) - int64(ix.lo); d >= 0 && d < int64(ix.count) {
		return int32(d)
	}
	return -1
}

// VertexAt returns the vertex in row i — the inverse of Row. i must be in
// [0, Len).
func (ix RowIndex) VertexAt(i int) VID { return ix.lo + VID(i) }
