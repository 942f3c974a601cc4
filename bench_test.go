// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each benchmark runs the corresponding experiment harness and prints
// the paper-style table on its first iteration, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. docs/ARCHITECTURE.md ("Substitutions for
// the paper's environment") maps benchmarks to paper artifacts. Benchmarks
// run at half stand-in scale (Scale 0.5) to keep the whole suite's
// wall-clock reasonable on one machine; cmd/experiments runs full stand-in
// scale.
package dsteiner_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"dsteiner/internal/experiments"
)

// benchConfig is the shared experiment configuration for benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.5
	cfg.SeedCap = 2000
	cfg.Reps = 2
	cfg.RefineBudget = 5 * time.Second
	if testing.Short() {
		cfg = experiments.ShortConfig()
	}
	return cfg
}

// runExperiment executes one experiment per benchmark iteration, printing
// its tables on the first iteration only.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintf(os.Stdout, "\n")
			experiments.Render(os.Stdout, ts)
		}
	}
}

// BenchmarkTable1_APSPvsVoronoi regenerates Table I: single-threaded APSP
// vs Voronoi-cell distance computation on LVJ and PTN.
func BenchmarkTable1_APSPvsVoronoi(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable3_Datasets regenerates Table III: dataset characteristics
// of the synthetic stand-ins next to the paper's full-scale numbers.
func BenchmarkTable3_Datasets(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig3_StrongScaling regenerates Fig. 3: per-phase runtime and
// critical-path work across doubling rank counts on the four largest
// graphs.
func BenchmarkFig3_StrongScaling(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4_SeedSweep regenerates Fig. 4: per-phase runtime for
// |S| = 10..10000 on six graphs.
func BenchmarkFig4_SeedSweep(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkTable4_TreeEdges regenerates Table IV: Steiner-tree edge counts
// for every dataset and seed count.
func BenchmarkTable4_TreeEdges(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig5_FIFOvsPriority regenerates Fig. 5 and Fig. 6: runtime and
// message counts under FIFO vs priority message queues.
func BenchmarkFig5_FIFOvsPriority(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig7_WeightRanges regenerates Fig. 7: sensitivity of both queue
// disciplines to the edge-weight range on LVJ.
func BenchmarkFig7_WeightRanges(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8_Memory regenerates Fig. 8: graph vs algorithm-state memory
// accounting at |S| = 1K and the largest supported seed count.
func BenchmarkFig8_Memory(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable5_SeedStrategies regenerates Table V: the four seed
// selection strategies on LVJ.
func BenchmarkTable5_SeedStrategies(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6and7_RelatedWork regenerates Table VI (runtime vs exact
// solver and sequential 2-approximations) and Table VII (approximation
// ratios against D_min).
func BenchmarkTable6and7_RelatedWork(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFig9_TreeRendering regenerates Fig. 9: Steiner trees in the MiCo
// graph (DOT emission plus size summary).
func BenchmarkFig9_TreeRendering(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkAblation_AsyncVsBSP quantifies the asynchronous-processing
// design choice (§IV) against bulk-synchronous supersteps.
func BenchmarkAblation_AsyncVsBSP(b *testing.B) { runExperiment(b, "ablation-bsp") }

// BenchmarkAblation_MST quantifies the sequential-MST design choice
// (§III): Prim vs Kruskal vs Borůvka on distance graphs G'₁ of measured
// sizes.
func BenchmarkAblation_MST(b *testing.B) { runExperiment(b, "ablation-mst") }
