package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// SolveSpec is the coordinator's per-query broadcast (core.QuerySpec on the
// wire): Mode 0 is a tree query over Seeds, mode 1 a Steiner Forest query
// over Groups, mode 2 a prize-collecting query over Seeds with index-
// parallel Penalties. The coordinator ships the canonical form; workers
// flatten it deterministically, so dense terminal indices agree fleet-wide.
type SolveSpec struct {
	QueryID   uint64
	Mode      uint8
	Seeds     []graph.VID
	Penalties []int64
	Groups    [][]graph.VID
}

// EncodeSolveSpec appends a FrameSolveSpec payload.
func EncodeSolveSpec(dst []byte, s SolveSpec) []byte {
	dst = append(dst, FrameSolveSpec)
	dst = AppendUvarint(dst, s.QueryID)
	dst = append(dst, s.Mode)
	dst = AppendVIDs(dst, s.Seeds)
	dst = AppendInt64s(dst, s.Penalties)
	dst = AppendUvarint(dst, uint64(len(s.Groups)))
	for _, g := range s.Groups {
		dst = AppendVIDs(dst, g)
	}
	return dst
}

// DecodeSolveSpec decodes a FrameSolveSpec body.
func DecodeSolveSpec(body []byte) (SolveSpec, error) {
	d := NewDec(body)
	s := SolveSpec{
		QueryID:   d.Uvarint(),
		Mode:      d.Byte(),
		Seeds:     d.VIDs(),
		Penalties: d.Int64s(),
	}
	nGroups := d.count(1, "spec groups")
	for i := 0; i < nGroups && d.err == nil; i++ {
		s.Groups = append(s.Groups, d.VIDs())
	}
	return s, d.finish()
}

// PhaseRec is one phase's statistics on the wire (core.PhaseStat).
type PhaseRec struct {
	Name        string
	Seconds     float64
	Sent        int64
	Processed   int64
	MaxRankWork int64
}

// SolveResult is the wire form of core.Result's solver output — everything
// rank 0 produces for a query, shipped back inside WorkerDone by the worker
// hosting it. Memory accounting and validation happen coordinator-side.
type SolveResult struct {
	Tree           []graph.Edge
	TotalDistance  int64
	Phases         []PhaseRec
	DistGraphEdges int
	// Skipped lists the terminals a prize-mode query paid to leave out
	// (empty for tree and forest).
	Skipped []graph.VID
	// CrossTableBytes and FragmentMsgs are the query's phase 3–5 payload
	// bytes and record count.
	CrossTableBytes int64
	FragmentMsgs    int64
}

func appendSolveResult(dst []byte, r SolveResult) []byte {
	dst = EncodeEdges(dst, r.Tree)
	dst = AppendVarint(dst, r.TotalDistance)
	dst = AppendUvarint(dst, uint64(len(r.Phases)))
	for _, p := range r.Phases {
		dst = AppendString(dst, p.Name)
		dst = appendFloat64(dst, p.Seconds)
		dst = AppendVarint(dst, p.Sent)
		dst = AppendVarint(dst, p.Processed)
		dst = AppendVarint(dst, p.MaxRankWork)
	}
	dst = AppendUvarint(dst, uint64(r.DistGraphEdges))
	dst = AppendVIDs(dst, r.Skipped)
	dst = AppendVarint(dst, r.CrossTableBytes)
	return AppendVarint(dst, r.FragmentMsgs)
}

func decodeSolveResult(d *Dec) SolveResult {
	r := SolveResult{Tree: d.edges(nil), TotalDistance: d.Varint()}
	nPhases := d.Int()
	if d.err == nil && nPhases > d.Len() {
		d.err = fmt.Errorf("%w: phase count", ErrCorrupt)
	}
	for i := 0; i < nPhases && d.err == nil; i++ {
		r.Phases = append(r.Phases, PhaseRec{
			Name:        d.String(),
			Seconds:     d.Float64(),
			Sent:        d.Varint(),
			Processed:   d.Varint(),
			MaxRankWork: d.Varint(),
		})
	}
	r.DistGraphEdges = d.Int()
	r.Skipped = d.VIDs()
	r.CrossTableBytes = d.Varint()
	r.FragmentMsgs = d.Varint()
	return r
}

// appendStats encodes the per-query runtime counters record, field for
// field in declaration order.
func appendStats(dst []byte, s rt.Stats) []byte {
	n := s.Net
	for _, v := range [...]int64{
		s.Sent, s.Processed, s.Batches, s.Suppressed,
		n.FramesOut, n.FramesIn, n.BytesOut, n.BytesIn, n.EncodeNs, n.DecodeNs,
		n.FlushesSmall, n.FlushesMid, n.FlushesLarge,
	} {
		dst = AppendVarint(dst, v)
	}
	return dst
}

func decodeStats(d *Dec) rt.Stats {
	return rt.Stats{
		Sent:       d.Varint(),
		Processed:  d.Varint(),
		Batches:    d.Varint(),
		Suppressed: d.Varint(),
		Net: rt.TransportStats{
			FramesOut:    d.Varint(),
			FramesIn:     d.Varint(),
			BytesOut:     d.Varint(),
			BytesIn:      d.Varint(),
			EncodeNs:     d.Varint(),
			DecodeNs:     d.Varint(),
			FlushesSmall: d.Varint(),
			FlushesMid:   d.Varint(),
			FlushesLarge: d.Varint(),
		},
	}
}

// WorkerDone closes one query on one worker: the per-hosted-rank cross-cell
// table sizes (coordinator-side memory accounting), this process's share of
// the query's runtime counters, and — from the worker hosting rank 0 — the
// encoded Result. Err carries rank 0's solve error (disconnected seeds),
// empty on success.
type WorkerDone struct {
	QueryID   uint64
	Err       string
	TableLens []int64 // len(E_N table) per hosted rank, rank order
	// Stats is the runtime counters record for this query on this process:
	// message counters plus the transport traffic. The
	// coordinator folds the workers' records with rt.Stats.Add.
	Stats     rt.Stats
	HasResult bool
	Result    SolveResult
}

// EncodeWorkerDone appends a FrameWorkerDone payload.
func EncodeWorkerDone(dst []byte, w WorkerDone) []byte {
	dst = append(dst, FrameWorkerDone)
	dst = AppendUvarint(dst, w.QueryID)
	dst = AppendString(dst, w.Err)
	dst = AppendInt64s(dst, w.TableLens)
	dst = appendStats(dst, w.Stats)
	dst = appendBool(dst, w.HasResult)
	if w.HasResult {
		dst = appendSolveResult(dst, w.Result)
	}
	return dst
}

// DecodeWorkerDone decodes a FrameWorkerDone body.
func DecodeWorkerDone(body []byte) (WorkerDone, error) {
	d := NewDec(body)
	var w WorkerDone
	w.QueryID = d.Uvarint()
	w.Err = d.String()
	w.TableLens = d.Int64s()
	w.Stats = decodeStats(d)
	w.HasResult = d.Bool()
	if w.HasResult {
		w.Result = decodeSolveResult(d)
	}
	return w, d.finish()
}

// EncodeEdges appends a counted []graph.Edge: the blob of the final tree
// gather (rank-local tree pieces addressed to rank 0) and the Tree field of
// SolveResult.
func EncodeEdges(dst []byte, edges []graph.Edge) []byte {
	dst = AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = AppendUvarint(dst, uint64(uint32(e.U)))
		dst = AppendUvarint(dst, uint64(uint32(e.V)))
		dst = AppendUvarint(dst, uint64(e.W))
	}
	return dst
}

// edges decodes an EncodeEdges list, appending to out.
func (d *Dec) edges(out []graph.Edge) []graph.Edge {
	n := d.count(3, "edge list") // ≥ 3 bytes per edge
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, graph.Edge{
			U: graph.VID(int32(d.Uvarint())),
			V: graph.VID(int32(d.Uvarint())),
			W: uint32(d.Uvarint()),
		})
	}
	return out
}

// DecodeEdges decodes an EncodeEdges blob, appending to out.
func DecodeEdges(blob []byte, out []graph.Edge) ([]graph.Edge, error) {
	d := NewDec(blob)
	out = d.edges(out)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}
