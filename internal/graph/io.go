package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary format: a tiny CSR container comparable in spirit to the HavoqGT
// binary graph format referenced in Table III. Layout (little endian):
//
//	magic   [8]byte  "DSTEINR1"
//	n       uint64   vertex count
//	arcs    uint64   arc count (2|E|)
//	offsets (n+1) * uint64
//	targets arcs * uint32
//	weights arcs * uint32
var binaryMagic = [8]byte{'D', 'S', 'T', 'E', 'I', 'N', 'R', '1'}

// WriteBinary serializes g in the repository's binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	hdr := [2]uint64{uint64(g.NumVertices()), uint64(g.NumArcs())}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return err
	}
	if err := writeColumn(bw, g.offsets); err != nil {
		return err
	}
	if err := writeColumn(bw, g.targets); err != nil {
		return err
	}
	if err := writeColumn(bw, g.weights); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary and validates it.
// Each column is decoded straight into the graph's own array: Validate
// refuses what does not fit it (a negative offset, a target at or past n —
// a uint32 target with its high bit set reads as a negative VID).
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var hdr [2]uint64
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, err
	}
	// Cap counts to keep corrupt headers from driving giant allocations;
	// vertex IDs are int32 and this repository's in-memory graphs stay
	// far below the cap.
	const maxCount = 1 << 28
	n, arcs := int(hdr[0]), int(hdr[1])
	if n < 0 || arcs < 0 || hdr[0] > maxCount || hdr[1] > maxCount {
		return nil, fmt.Errorf("graph: bad header n=%d arcs=%d", hdr[0], hdr[1])
	}
	g := &Graph{
		offsets: make([]int64, n+1),
		targets: make([]VID, arcs),
		weights: make([]uint32, arcs),
		numEdge: int64(arcs) / 2,
	}
	if err := readColumn(br, g.offsets); err != nil {
		return nil, err
	}
	if err := readColumn(br, g.targets); err != nil {
		return nil, err
	}
	if err := readColumn(br, g.weights); err != nil {
		return nil, err
	}
	for i, w := range g.weights {
		if i == 0 {
			g.minW, g.maxW = w, w
			continue
		}
		if w < g.minW {
			g.minW = w
		}
		if w > g.maxW {
			g.maxW = w
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.computeMaxDegree()
	return g, nil
}

// column is the element type of one array of the binary format: offsets
// are 8-byte words, targets and weights 4-byte ones.
type column interface{ ~int64 | ~int32 | ~uint32 }

// columnChunk is the scratch a column is encoded or decoded through, so no
// column is ever staged whole.
const columnChunk = 1 << 16

// writeColumn encodes col little endian.
func writeColumn[T column](w io.Writer, col []T) error {
	size := binary.Size(T(0))
	buf := make([]byte, 0, columnChunk)
	for len(col) > 0 {
		k := min(len(col), columnChunk/size)
		buf = buf[:0]
		for _, x := range col[:k] {
			if size == 8 {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			} else {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		col = col[k:]
	}
	return nil
}

// readColumn fills col from little-endian words.
func readColumn[T column](r io.Reader, col []T) error {
	size := binary.Size(T(0))
	buf := make([]byte, columnChunk)
	for len(col) > 0 {
		k := min(len(col), columnChunk/size)
		b := buf[:k*size]
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		for i := range col[:k] {
			if size == 8 {
				col[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
			} else {
				col[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
		col = col[k:]
	}
	return nil
}

// WriteEdgeList writes g as a plain "u v w" text edge list (undirected
// edges, canonical order), one per line, with a header comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# dsteiner edge list: %d vertices, %d undirected edges\n",
		g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		ts, ws := g.Adj(VID(v))
		for i, u := range ts {
			if VID(v) <= u {
				fmt.Fprintf(bw, "%d %d %d\n", v, u, ws[i])
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a "u v [w]" text edge list; missing weights default to
// 1 and '#' lines are comments. Vertex count is 1 + the largest ID seen.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := VID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected 'u v [w]'", lineNo)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		w := int64(1)
		if len(fields) >= 3 {
			w, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			if w <= 0 || w > int64(^uint32(0)) {
				return nil, fmt.Errorf("graph: line %d: weight %d out of range", lineNo, w)
			}
		}
		edges = append(edges, Edge{U: VID(u), V: VID(v), W: uint32(w)})
		if VID(u) > maxID {
			maxID = VID(u)
		}
		if VID(v) > maxID {
			maxID = VID(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	b := NewBuilder(int(maxID) + 1)
	b.AddEdges(edges)
	return b.Build()
}
