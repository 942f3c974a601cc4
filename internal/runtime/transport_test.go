package runtime

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
)

// TestHostedRangeValidation pins the Config.HostLo/HostHi contract: a
// proper subset requires a Transport, bad ranges are rejected, and the
// zero value hosts everything.
func TestHostedRangeValidation(t *testing.T) {
	part, err := partition.NewBlock(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Ranks: 4, HostLo: 1, HostHi: 3}, part); err == nil ||
		!strings.Contains(err.Error(), "requires a Transport") {
		t.Fatalf("subset without transport: %v", err)
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 5}} {
		if _, err := New(Config{Ranks: 4, HostLo: bad[0], HostHi: bad[1]}, part); err == nil {
			t.Fatalf("range %v accepted", bad)
		}
	}
	c := MustNew(Config{Ranks: 4}, part)
	if lo, hi := c.HostRange(); lo != 0 || hi != 4 {
		t.Fatalf("default host range [%d,%d), want [0,4)", lo, hi)
	}
}

// TestGatherBlobsLoopback checks the wire-able gather collective against
// the in-process path: every rank receives the full rank-ordered list.
func TestGatherBlobsLoopback(t *testing.T) {
	got := make([][][]byte, 4)
	newComm(t, 8, 4, QueueFIFO).Run(func(r *Rank) {
		var blob []byte
		if r.ID() != 2 { // rank 2 contributes nothing
			blob = []byte{byte(r.ID()), byte(r.ID() + 10)}
		}
		got[r.ID()] = GatherBlobs(r, blob)
	})
	want := [][]byte{{0, 10}, {1, 11}, nil, {3, 13}}
	for rank, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("rank %d gathered %v, want %v", rank, g, want)
		}
	}
}

// TestFragmentExchangeLoopback checks the routed-blob collective in-process:
// a routed blob reaches only its Dest, a Dest -1 blob every rank including
// its sender, and a rank with nothing to contribute still takes part.
func TestFragmentExchangeLoopback(t *testing.T) {
	for _, ranks := range []int{1, 3, 4} {
		newComm(t, 8, ranks, QueueFIFO).Run(func(r *Rank) {
			var out []FragBlob
			if r.ID() < ranks-1 { // the last rank contributes nothing
				out = []FragBlob{{Src: r.ID(), Dest: (r.ID() + 1) % ranks, Blob: []byte("to-next")},
					{Src: r.ID(), Dest: -1, Blob: []byte("to-all")}}
			}
			var got, want []string
			for _, fb := range FragmentExchange(r, out) {
				got = append(got, fmt.Sprintf("%d:%s", fb.Src, fb.Blob))
			}
			sort.Strings(got)
			for src := 0; src < ranks-1; src++ {
				want = append(want, fmt.Sprintf("%d:to-all", src))
				if (src+1)%ranks == r.ID() {
					want = append(want, fmt.Sprintf("%d:to-next", src))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d ranks: rank %d received %v, want %v", ranks, r.ID(), got, want)
			}
		})
	}
}

// TestSuppressCounter checks Rank.Suppress feeds Stats.Suppressed — once
// per completed traversal, from the rank-private count — and ResetStats
// clears it.
func TestSuppressCounter(t *testing.T) {
	part, err := partition.NewBlock(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(Config{Ranks: 2}, part)
	c.Run(func(r *Rank) {
		r.Traverse(&Traversal{
			Visit: func(*Rank, Msg) {},
			Init: func(r *Rank) {
				for i := 0; i <= r.ID(); i++ {
					r.Suppress()
				}
			},
		})
	})
	if got := c.Stats().Suppressed; got != 3 {
		t.Fatalf("suppressed = %d, want 3", got)
	}
	if got := c.Stats().Net; got != (TransportStats{}) {
		t.Fatalf("loopback comm reports transport traffic: %+v", got)
	}
	c.ResetStats()
	if got := c.Stats().Suppressed; got != 0 {
		t.Fatalf("suppressed after reset = %d", got)
	}
}

// TestHasDelegates pins the cheap gate the voronoi changed-since filter
// keys on.
func TestHasDelegates(t *testing.T) {
	base, err := partition.NewBlock(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(p partition.Partition, want bool) {
		t.Helper()
		c := MustNew(Config{Ranks: 2}, p)
		c.Run(func(r *Rank) {
			if got := r.HasDelegates(); got != want {
				t.Errorf("HasDelegates = %v, want %v", got, want)
			}
		})
	}
	probe(base, false)
	probe(partition.WithDelegateList(base, 6, nil), false)
	probe(partition.WithDelegateList(base, 6, []graph.VID{3}), true)
}

// nopTransport satisfies Transport for construction-only tests.
type nopTransport struct{}

func (nopTransport) Attach(TransportHost)                     {}
func (nopTransport) Deliver(int, []Msg)                       {}
func (nopTransport) Barrier()                                 {}
func (nopTransport) AllreduceInt64(_ CollOp, x int64) int64   { return x }
func (nopTransport) Gather(_ []int, b [][]byte) [][]byte      { return b }
func (nopTransport) FragmentExchange(b []FragBlob) []FragBlob { return b }
func (nopTransport) FragmentSummary(FragSummary)              {}
func (nopTransport) StartTraversal(uint64) chan struct{}      { return make(chan struct{}) }
func (nopTransport) Stats() TransportStats                    { return TransportStats{} }
func (nopTransport) Close() error                             { return nil }

// TestTransportStatsAddSubCoverEveryField fills every counter with a
// distinct value by reflection, so a counter added to the struct but not to
// Add or Sub fails here instead of silently reporting zero.
func TestTransportStatsAddSubCoverEveryField(t *testing.T) {
	var s TransportStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum := reflect.ValueOf(s.Add(s))
	for i := 0; i < sum.NumField(); i++ {
		if got := sum.Field(i).Int(); got != int64(2*(i+1)) {
			t.Errorf("Add: %s = %d, want %d", v.Type().Field(i).Name, got, 2*(i+1))
		}
	}
	if diff := s.Sub(s); diff != (TransportStats{}) {
		t.Errorf("Sub: s − s = %+v, want zero", diff)
	}
}
