// Command experiments regenerates the paper's evaluation tables and
// figures on the synthetic stand-in datasets.
//
// Usage:
//
//	experiments -run all                  # everything, full stand-in scale
//	experiments -run table1,fig5 -v       # specific artifacts with progress
//	experiments -run fig9 -out ./dot      # also write DOT renderings
//	experiments -run table6 -exact=false  # skip the exact solver column
//
// Experiment IDs: table1 table3 fig3 fig4 table4 fig5 fig6 fig7 fig8
// table5 table6 table7 fig9 ablation-bsp ablation-partition ablation-mst.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dsteiner/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (0..1]")
		ranks   = flag.Int("ranks", 4, "simulated rank count for fixed-P experiments")
		seedCap = flag.Int("seedcap", 10000, "largest |S| attempted")
		exact   = flag.Bool("exact", true, "run the Dreyfus-Wagner exact column (Table VI/VII)")
		budget  = flag.Duration("refine-budget", 10*time.Second, "reference refinement budget per instance")
		reps    = flag.Int("reps", 3, "repetitions for variability experiments (Fig. 7)")
		outDir  = flag.String("out", "", "directory for Fig. 9 DOT files (empty = skip)")
		verbose = flag.Bool("v", false, "log progress to stderr")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text tables")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Ranks = *ranks
	cfg.SeedCap = *seedCap
	cfg.RunExact = *exact
	cfg.RefineBudget = *budget
	cfg.Reps = *reps
	cfg.OutDir = *outDir
	if *verbose {
		cfg.Log = os.Stderr
	}

	ids := experiments.Names()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" || seen[id] {
			continue
		}
		// fig5/fig6 and table6/table7 share runners; render once.
		canonical := map[string]string{"fig6": "fig5", "table7": "table6"}
		if c, ok := canonical[id]; ok {
			id = c
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		start := time.Now()
		ts, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			for i := range ts {
				ts[i].RenderCSV(os.Stdout)
				fmt.Println()
			}
		} else {
			experiments.Render(os.Stdout, ts)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
