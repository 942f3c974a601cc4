package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// validBinary serializes the Fig. 1 graph, returning the raw container
// bytes for corruption tests. Layout: magic[8] n[8] arcs[8] offsets
// targets weights (all little endian).
func validBinary(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, paperFig1(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readBytes(b []byte) error {
	_, err := ReadBinary(bytes.NewReader(b))
	return err
}

func TestReadBinaryTruncatedHeader(t *testing.T) {
	raw := validBinary(t)
	cases := []struct {
		name string
		cut  int
		want string
	}{
		{"empty", 0, "magic"},
		{"mid magic", 4, "magic"},
		{"magic only", 8, "EOF"},
		{"mid header", 12, "EOF"},
		{"header only", 24, "EOF"}, // offsets missing
	}
	for _, tc := range cases {
		err := readBytes(raw[:tc.cut])
		if err == nil {
			t.Errorf("%s: truncation at %d accepted", tc.name, tc.cut)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestReadBinaryTruncatedBody(t *testing.T) {
	raw := validBinary(t)
	// Anywhere inside the arrays: offsets / targets / weights regions.
	for _, cut := range []int{30, len(raw) / 2, len(raw) - 4} {
		if err := readBytes(raw[:cut]); err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(raw))
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	raw := validBinary(t)
	for _, i := range []int{0, 3, 7} {
		corrupt := append([]byte(nil), raw...)
		corrupt[i] ^= 0xff
		err := readBytes(corrupt)
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("magic byte %d corrupted: err = %v", i, err)
		}
	}
}

// patchHeader returns the container with the n (index 0) or arcs (index 1)
// header field overwritten.
func patchHeader(raw []byte, field int, value uint64) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[8+8*field:], value)
	return out
}

func TestReadBinaryArcCountMismatch(t *testing.T) {
	raw := validBinary(t)
	g, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	arcs := uint64(g.NumArcs())

	// Fewer arcs than the offsets claim: the reader consumes short target/
	// weight arrays and validation must catch the inconsistency.
	err = readBytes(patchHeader(raw, 1, arcs-2))
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("arcs-2: err = %v, want size mismatch", err)
	}
	// More arcs than the payload holds: the read itself must fail.
	if err := readBytes(patchHeader(raw, 1, arcs+2)); err == nil {
		t.Error("arcs+2 accepted")
	}
	// Giant counts must be rejected before any allocation.
	err = readBytes(patchHeader(raw, 1, 1<<40))
	if err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Errorf("giant arcs: err = %v, want bad header", err)
	}
	err = readBytes(patchHeader(raw, 0, 1<<40))
	if err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Errorf("giant n: err = %v, want bad header", err)
	}
}

func TestReadBinaryVertexCountMismatch(t *testing.T) {
	raw := validBinary(t)
	g, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(g.NumVertices())
	// A smaller n misaligns the offsets array against the payload; either
	// the offsets prefix or the validation must reject it.
	if err := readBytes(patchHeader(raw, 0, n-1)); err == nil {
		t.Error("n-1 accepted")
	}
	if err := readBytes(patchHeader(raw, 0, n+1)); err == nil {
		t.Error("n+1 accepted")
	}
}

// TestReadBinaryRejectsHighBitWords covers words that only fit their
// columns as negative numbers: the reader decodes them straight into the
// graph's signed arrays, and validation must refuse them.
func TestReadBinaryRejectsHighBitWords(t *testing.T) {
	raw := validBinary(t)
	n := int(binary.LittleEndian.Uint64(raw[8:]))
	offsets, targets := 24, 24+8*(n+1)
	for _, tc := range []struct {
		name string
		at   int
		word []byte
	}{
		{"target 1<<31", targets, binary.LittleEndian.AppendUint32(nil, 1<<31)},
		{"target 2^32-1", targets + 4, binary.LittleEndian.AppendUint32(nil, ^uint32(0))},
		{"offset 1<<63", offsets + 8, binary.LittleEndian.AppendUint64(nil, 1<<63)},
	} {
		corrupt := append([]byte(nil), raw...)
		copy(corrupt[tc.at:], tc.word)
		if err := readBytes(corrupt); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestReadBinaryRoundTripAfterCorruptAttempts(t *testing.T) {
	// The reader must stay usable: a good payload after bad ones parses.
	raw := validBinary(t)
	g, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := paperFig1(t)
	if g.NumVertices() != want.NumVertices() || g.NumArcs() != want.NumArcs() {
		t.Fatalf("round trip: |V|=%d 2|E|=%d, want |V|=%d 2|E|=%d",
			g.NumVertices(), g.NumArcs(), want.NumVertices(), want.NumArcs())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
