package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
	"dsteiner/internal/tables"
)

// Fig9 reproduces the Steiner-tree visualizations of Fig. 9: trees in the
// MiCo graph for |S| = 10, 100, 1000, emitted as Graphviz DOT files (seed
// vertices red, Steiner vertices blue, like the paper's rendering) plus a
// summary table.
func Fig9(cfg Config) ([]tables.Table, error) {
	name := "MCO"
	g := cfg.Graph(name)
	t := tables.Table{
		Title:  "Fig. 9: Steiner trees in the MiCo graph",
		Header: []string{"|S|", "Tree vertices", "Steiner vertices", "|E_S|", "D(G_S)", "DOT file"},
	}
	for _, k := range cfg.SeedCounts(name) {
		if k > 1000 {
			continue
		}
		cfg.logf("fig9: |S|=%d", k)
		seedSet := cfg.Seeds(name, k)
		res, err := core.Solve(g, seedSet, core.Default(cfg.Ranks))
		if err != nil {
			return nil, err
		}
		file := "-"
		if cfg.OutDir != "" {
			if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
				return nil, err
			}
			file = filepath.Join(cfg.OutDir, fmt.Sprintf("mico_s%d.dot", k))
			f, err := os.Create(file)
			if err != nil {
				return nil, err
			}
			graph.WriteDOT(f, res.Tree, seedSet)
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		t.AddRow(itoa(k),
			itoa(len(seedSet)+res.SteinerVertices),
			itoa(res.SteinerVertices),
			itoa(len(res.Tree)),
			tables.Count(int64(res.TotalDistance)),
			file)
	}
	t.AddNote("DOT renders seeds red and Steiner vertices blue, matching the paper's figure")
	return []tables.Table{t}, nil
}
