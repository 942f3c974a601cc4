package experiments

import (
	"fmt"
	"time"

	"dsteiner/internal/baseline"
	"dsteiner/internal/core"
	"dsteiner/internal/exact"
	"dsteiner/internal/graph"
	"dsteiner/internal/improve"
	"dsteiner/internal/tables"
)

// table67Datasets are the four small graphs of the paper's §V-G comparison.
var table67Datasets = []string{"LVJ", "PTN", "MCO", "CTS"}

// Table67 reproduces Table VI (runtime: our distributed solver at 16 ranks
// vs the exact solver and the WWW/Mehlhorn 2-approximations) and Table VII
// (approximation quality D(G_S)/D_min and % error) in one pass, since both
// need the same solutions.
//
// SCIP-Jack substitution (docs/ARCHITECTURE.md): the exact column S runs the
// Dreyfus–Wagner DP at |S|=10; at |S|=100/1000 exact solving is infeasible
// for any solver of this family, so S reports the refined best-of-
// heuristics reference (labelled S*), whose runtime shape — far slower
// than the heuristics, growing with |S| — matches the paper's SCIP-Jack
// column, and whose weight serves as the D_min stand-in for Table VII.
func Table67(cfg Config) ([]tables.Table, error) {
	t6 := tables.Table{
		Title:  "Table VI: runtime vs related work (D = this work, 16 ranks)",
		Header: []string{"Graph", "|S|", "S (exact)", "W (WWW)", "M (Mehlhorn)", "D (ours)"},
	}
	t7 := tables.Table{
		Title:  "Table VII: approximation quality of the distributed solution",
		Header: []string{"Graph", "|S|", "D(G_S)", "D_min", "Ratio", "% Error"},
	}
	var ratios []float64
	for _, name := range table67Datasets {
		g := cfg.Graph(name)
		for _, k := range cfg.SeedCounts(name) {
			if k > 1000 {
				continue // the paper stops at 1000
			}
			seedSet := cfg.Seeds(name, k)
			cfg.logf("table6/7: %s |S|=%d", name, k)

			// D: our distributed solver at the paper's 16 processes.
			t0 := time.Now()
			res, err := core.Solve(g, seedSet, core.Default(16))
			if err != nil {
				return nil, err
			}
			dTime := time.Since(t0).Seconds()

			// W and M baselines.
			t0 = time.Now()
			www, err := baseline.WWW(g, seedSet)
			if err != nil {
				return nil, err
			}
			wTime := time.Since(t0).Seconds()
			t0 = time.Now()
			meh, err := baseline.Mehlhorn(g, seedSet)
			if err != nil {
				return nil, err
			}
			mTime := time.Since(t0).Seconds()

			// S: exact (DW) when feasible, refined reference otherwise.
			var dmin graph.Dist
			var sTime float64
			sLabel := ""
			exactRun := false
			if cfg.RunExact && k <= 12 {
				t0 = time.Now()
				sol, err := exact.Solve(g, seedSet, 0)
				if err == nil {
					sTime = time.Since(t0).Seconds()
					dmin = sol.Total
					exactRun = true
				}
			}
			if !exactRun {
				t0 = time.Now()
				best := www
				if meh.Total < best.Total {
					best = meh
				}
				extra := baseline.Tree{Edges: res.Tree, Total: res.TotalDistance}
				if extra.Total < best.Total {
					best = extra
				}
				ref := improve.RefineBudget(g, seedSet, best, cfg.RefineBudget)
				sTime = time.Since(t0).Seconds()
				dmin = ref.Total
				sLabel = "*"
			}

			t6.AddRow(name, itoa(k),
				tables.Seconds(sTime)+sLabel,
				tables.Seconds(wTime),
				tables.Seconds(mTime),
				tables.Seconds(dTime))

			ratio := float64(res.TotalDistance) / float64(dmin)
			ratios = append(ratios, ratio)
			t7.AddRow(name, itoa(k),
				tables.Count(int64(res.TotalDistance)),
				tables.Count(int64(dmin))+sLabel,
				tables.Ratio(ratio),
				fmt.Sprintf("%.2f%%", 100*(ratio-1)))
		}
	}
	t6.AddNote("S* = refined best-of-heuristics reference (SCIP-Jack substitute for |S|>12); see docs/ARCHITECTURE.md")
	t6.AddNote("paper: exact solver minutes-to-hours; WWW seconds and |S|-independent; D fastest on larger graphs")
	if len(ratios) > 0 {
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		t7.AddNote("mean ratio %.4f over %d instances (paper: 1.0527, 5.3%% error, bound < 2)",
			sum/float64(len(ratios)), len(ratios))
	}
	t7.AddNote("D_min* entries are refined-reference stand-ins, not proven optima")
	return []tables.Table{t6, t7}, nil
}
