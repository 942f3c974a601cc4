// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the scaled-down stand-in datasets. Each runner returns
// renderable tables with the same rows/series the paper reports;
// docs/ARCHITECTURE.md ("Substitutions for the paper's environment") maps
// experiment IDs to paper artifacts.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	"dsteiner/internal/seeds"
	"dsteiner/internal/tables"
)

// Config controls experiment scale and cost knobs. DefaultConfig mirrors
// the paper's sweeps at stand-in scale; ShortConfig shrinks everything for
// quick test runs.
type Config struct {
	// Scale multiplies dataset vertex counts (1.0 = full stand-ins).
	Scale float64
	// Ranks is the rank count for fixed-P experiments (Fig. 4 etc.).
	Ranks int
	// SeedCap bounds the largest seed count; the paper's "10K" column is
	// min(10000, SeedCap, component/4) per dataset.
	SeedCap int
	// RunExact enables the Dreyfus–Wagner exact columns (Table VI/VII at
	// |S|=10); when false, the refined reference substitutes everywhere.
	RunExact bool
	// RefineBudget limits reference refinement per instance.
	RefineBudget time.Duration
	// Reps repeats timing-sensitive runs (Fig. 7 variability stats).
	Reps int
	// OutDir, when set, receives Fig. 9 DOT files.
	OutDir string
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// SeedSelection is the RNG seed for seed-vertex selection.
	SeedSelection int64
}

// DefaultConfig runs the full stand-in scale sweeps.
func DefaultConfig() Config {
	return Config{
		Scale:         1.0,
		Ranks:         4,
		SeedCap:       10000,
		RunExact:      true,
		RefineBudget:  10 * time.Second,
		Reps:          3,
		SeedSelection: 42,
	}
}

// ShortConfig shrinks datasets and sweeps for fast CI-style runs.
func ShortConfig() Config {
	return Config{
		Scale:         0.125,
		Ranks:         2,
		SeedCap:       300,
		RunExact:      false,
		RefineBudget:  time.Second,
		Reps:          1,
		SeedSelection: 42,
	}
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, format+"\n", args...)
	}
}

// Runner produces one experiment's tables.
type Runner func(cfg Config) ([]tables.Table, error)

// Registry maps experiment IDs (paper artifact names) to runners. Fig. 5
// and Fig. 6 share one runner (same runs report runtime and messages);
// Table VI and Table VII likewise.
var Registry = map[string]Runner{
	"table1":             Table1,
	"table3":             Table3,
	"fig3":               Fig3,
	"fig4":               Fig4,
	"table4":             Table4,
	"fig5":               Fig56,
	"fig6":               Fig56,
	"fig7":               Fig7,
	"fig8":               Fig8,
	"table5":             Table5,
	"table6":             Table67,
	"table7":             Table67,
	"fig9":               Fig9,
	"ablation-bsp":       AblationBSP,
	"ablation-partition": AblationPartition,
	"ablation-mst":       AblationMST,
}

// Names returns registry keys in presentation order.
func Names() []string {
	order := []string{
		"table1", "table3", "fig3", "fig4", "table4", "fig5", "fig6",
		"fig7", "fig8", "table5", "table6", "table7", "fig9",
		"ablation-bsp", "ablation-partition", "ablation-mst",
	}
	out := make([]string, 0, len(order))
	seen := map[string]bool{}
	for _, n := range order {
		if _, ok := Registry[n]; ok && !seen[n] {
			out = append(out, n)
			seen[n] = true
		}
	}
	var rest []string
	for n := range Registry {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) ([]tables.Table, error) {
	r, ok := Registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(Names(), ", "))
	}
	return r(cfg)
}

// Render writes tables to w.
func Render(w io.Writer, ts []tables.Table) {
	for i := range ts {
		ts[i].Render(w)
	}
}

// --- dataset cache -------------------------------------------------------

type cacheKey struct {
	name  string
	scale float64
}

var (
	graphCache sync.Map // cacheKey -> *graph.Graph
	compCache  sync.Map // cacheKey -> int (largest component size)
)

// Graph returns the (cached) stand-in graph for a Table III dataset at the
// configured scale.
func (cfg Config) Graph(name string) *graph.Graph {
	key := cacheKey{name: name, scale: cfg.Scale}
	if g, ok := graphCache.Load(key); ok {
		return g.(*graph.Graph)
	}
	info := gen.MustDataset(name)
	c := info.Config
	if cfg.Scale > 0 && cfg.Scale < 1 {
		c = info.Scaled(cfg.Scale)
	}
	g := c.MustBuild()
	actual, _ := graphCache.LoadOrStore(key, g)
	return actual.(*graph.Graph)
}

// componentSize returns the size of the largest connected component.
func (cfg Config) componentSize(name string) int {
	key := cacheKey{name: name, scale: cfg.Scale}
	if n, ok := compCache.Load(key); ok {
		return n.(int)
	}
	n := len(graph.LargestComponentVertices(cfg.Graph(name)))
	compCache.Store(key, n)
	return n
}

// SeedCounts returns the paper's |S| sweep {10, 100, 1000, 10000} clipped
// to the dataset: counts above min(SeedCap, component/4) are dropped
// (the paper likewise reports N/A for 10K seeds on MiCo and CiteSeer).
func (cfg Config) SeedCounts(name string) []int {
	limit := cfg.componentSize(name) / 4
	if cfg.SeedCap < limit {
		limit = cfg.SeedCap
	}
	var out []int
	for _, k := range []int{10, 100, 1000, 10000} {
		if k <= limit {
			out = append(out, k)
		}
	}
	if len(out) == 0 && limit >= 2 {
		out = []int{limit}
	}
	return out
}

// Seeds picks |S|=k seed vertices with the paper's default BFS-level
// strategy, deterministically per (dataset, k).
func (cfg Config) Seeds(name string, k int) []graph.VID {
	return seeds.MustSelect(cfg.Graph(name), k, seeds.BFSLevel, cfg.SeedSelection+int64(k))
}
