package graph

import "testing"

func TestRowIndexAffineBlock(t *testing.T) {
	ix := NewRowIndex(10, 14)
	if ix.Len() != 4 {
		t.Fatalf("len=%d, want 4", ix.Len())
	}
	for i, v := range []VID{10, 11, 12, 13} {
		if ix.Row(v) != int32(i) || ix.VertexAt(i) != v {
			t.Fatalf("row(%d)=%d vertexAt(%d)=%d", v, ix.Row(v), i, ix.VertexAt(i))
		}
	}
	for _, v := range []VID{9, 14, 0, NilVID} {
		if ix.Row(v) != -1 {
			t.Fatalf("row(%d) = %d, want -1", v, ix.Row(v))
		}
	}
}

func TestRowIndexEmpty(t *testing.T) {
	ix := NewRowIndex(5, 5)
	if ix.Len() != 0 || ix.Row(5) != -1 || ix.Row(4) != -1 {
		t.Fatalf("empty index misbehaves: len=%d row(5)=%d", ix.Len(), ix.Row(5))
	}
}
