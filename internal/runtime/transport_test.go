package runtime

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

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

// TestExchangeLoopback checks the one byte collective in-process, in the
// three shapes the solver uses. Routed: a blob reaches only its Dest, a
// Dest -1 blob every rank including its sender, and a rank with nothing to
// contribute still takes part. Gather: every rank addresses rank 0, the only
// one to receive anything. Allgather: every rank broadcasts, and every rank
// sees each Src exactly once.
func TestExchangeLoopback(t *testing.T) {
	for _, ranks := range []int{1, 3, 4} {
		newComm(t, 8, ranks, QueueFIFO).Run(func(r *Rank) {
			// check runs one exchange; want is r's sorted "src:blob" receipts.
			check := func(shape string, want []string, out ...Blob) {
				got := []string{}
				for _, b := range Exchange(r, out) {
					got = append(got, fmt.Sprintf("%d:%s", b.Src, b.Blob))
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d ranks %s: rank %d received %v, want %v", ranks, shape, r.ID(), got, want)
				}
			}
			routed, every := []string{}, []string{}
			for src := 0; src < ranks; src++ {
				every = append(every, fmt.Sprintf("%d:mine", src))
				if src == ranks-1 {
					break // the last rank contributes nothing to the routed shape
				}
				routed = append(routed, fmt.Sprintf("%d:to-all", src))
				if (src+1)%ranks == r.ID() {
					routed = append(routed, fmt.Sprintf("%d:to-next", src))
				}
			}
			if r.ID() < ranks-1 {
				check("routed", routed, Blob{Src: r.ID(), Dest: (r.ID() + 1) % ranks, Blob: []byte("to-next")},
					Blob{Src: r.ID(), Dest: -1, Blob: []byte("to-all")})
			} else {
				check("routed", routed)
			}
			check("allgather", every, Blob{Src: r.ID(), Dest: -1, Blob: []byte("mine")})
			if r.ID() != 0 {
				every = []string{}
			}
			check("gather", every, Blob{Src: r.ID(), Dest: 0, Blob: []byte("mine")})
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

// nopTransport satisfies Transport for construction-only tests.
type nopTransport struct{}

func (nopTransport) Attach(TransportHost)                   {}
func (nopTransport) Deliver(int, []Msg)                     {}
func (nopTransport) Barrier()                               {}
func (nopTransport) AllreduceInt64(_ CollOp, x int64) int64 { return x }
func (nopTransport) Exchange(b []Blob) []Blob               { return b }
func (nopTransport) StartTraversal(uint64) chan struct{}    { return make(chan struct{}) }
func (nopTransport) Stats() TransportStats                  { return TransportStats{} }
func (nopTransport) Close() error                           { return nil }

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
