package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// shortCfg returns a fast config for tests.
func shortCfg() Config {
	cfg := ShortConfig()
	cfg.Reps = 1
	return cfg
}

func TestRegistryNamesComplete(t *testing.T) {
	names := Names()
	// Every paper artifact must be present.
	want := []string{"table1", "table3", "fig3", "fig4", "table4", "fig5",
		"fig6", "fig7", "fig8", "table5", "table6", "table7", "fig9"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	if _, err := Run("nope", shortCfg()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestSeedCountsRespectComponentAndCap(t *testing.T) {
	cfg := shortCfg()
	counts := cfg.SeedCounts("CTS")
	if len(counts) == 0 {
		t.Fatal("no seed counts for CTS")
	}
	for _, k := range counts {
		if k > cfg.SeedCap {
			t.Errorf("count %d exceeds cap %d", k, cfg.SeedCap)
		}
		if k > cfg.componentSize("CTS")/4 && len(counts) > 1 {
			t.Errorf("count %d exceeds component/4", k)
		}
	}
}

func TestGraphCacheReturnsSameInstance(t *testing.T) {
	cfg := shortCfg()
	g1 := cfg.Graph("CTS")
	g2 := cfg.Graph("CTS")
	if g1 != g2 {
		t.Fatal("graph cache returned different instances")
	}
}

// TestAllExperimentsRunAtShortScale executes every registered experiment at
// the short scale and sanity-checks the emitted tables.
func TestAllExperimentsRunAtShortScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	cfg := shortCfg()
	seen := map[string]bool{}
	for _, id := range Names() {
		if seen[id] {
			continue
		}
		seen[id] = true
		ts, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(ts) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		var buf bytes.Buffer
		Render(&buf, ts)
		outStr := buf.String()
		if len(outStr) < 50 {
			t.Fatalf("%s: implausibly small output:\n%s", id, outStr)
		}
		for _, tb := range ts {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: table %q has no rows", id, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Fatalf("%s: table %q row width %d != header %d",
						id, tb.Title, len(row), len(tb.Header))
				}
			}
		}
	}
}

func TestTable1ShapeVCBeatsAPSP(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based shape check")
	}
	cfg := shortCfg()
	ts, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At the largest |S| row, the APSP/VC speedup must exceed 1.
	rows := ts[0].Rows
	last := rows[len(rows)-1]
	speedup, err := strconv.ParseFloat(last[len(last)-1], 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", last[len(last)-1])
	}
	if speedup <= 1.0 {
		t.Errorf("VC did not beat APSP at largest |S|: %v", last)
	}
}

func TestFig9WritesDOT(t *testing.T) {
	if testing.Short() {
		t.Skip("solves MCO three times")
	}
	cfg := shortCfg()
	cfg.OutDir = t.TempDir()
	ts, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range ts[0].Rows {
		if strings.HasSuffix(row[len(row)-1], ".dot") {
			found = true
		}
	}
	if !found {
		t.Fatal("no DOT files recorded")
	}
}

func TestStddev(t *testing.T) {
	if got := stddev(nil); got != 0 {
		t.Errorf("stddev(nil) = %f", got)
	}
	if got := stddev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("stddev(const) = %f", got)
	}
	got := stddev([]float64{1, 3})
	if got < 0.99 || got > 1.01 {
		t.Errorf("stddev(1,3) = %f, want 1", got)
	}
}

func TestMakeDistanceGraphConnected(t *testing.T) {
	edges := makeDistanceGraph(50, 200)
	if len(edges) != 200 {
		t.Fatalf("edges = %d", len(edges))
	}
	parent := make([]int, 50)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := 50
	for _, e := range edges {
		ru, rv := find(int(e.U)), find(int(e.V))
		if ru != rv {
			parent[ru] = rv
			comps--
		}
	}
	if comps != 1 {
		t.Fatalf("distance graph has %d components", comps)
	}
}
