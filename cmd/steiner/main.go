// Command steiner computes a 2-approximate Steiner minimal tree for a seed
// set on a weighted graph, printing per-phase statistics in the paper's
// style.
//
// Usage:
//
//	steiner -dataset LVJ -k 100                       # stand-in + BFS-level seeds
//	steiner -graph web.bin -seeds 3,99,1024           # explicit seeds on a file
//	steiner -dataset MCO -k 10 -dot tree.dot          # write a Fig. 9-style DOT
//	steiner -dataset FRS -k 1000 -ranks 8 -queue fifo # ablation configuration
//	steiner -dataset PTN -k 10 -compare               # vs baselines + exact
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dsteiner"
	"dsteiner/internal/stp"
	"dsteiner/internal/tables"
)

func main() {
	defaults := dsteiner.Defaults(1)
	var (
		graphFile = flag.String("graph", "", "binary CSR graph file (from gengraph)")
		stpFile   = flag.String("stp", "", "SteinLib/DIMACS .stp instance (graph + terminals)")
		dataset   = flag.String("dataset", "", "Table III stand-in name (alternative to -graph)")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		seedsFlag = flag.String("seeds", "", "comma-separated seed vertex IDs")
		k         = flag.Int("k", 0, "number of seeds to select (alternative to -seeds)")
		strategy  = flag.String("strategy", "bfs-level", "seed selection: bfs-level | uniform | eccentric | proximate")
		rngSeed   = flag.Int64("rng", 42, "seed-selection RNG seed")
		ranks     = flag.Int("ranks", 4, "simulated rank count")
		queue     = flag.String("queue", defaults.Queue.String(), "message queue: priority | fifo")
		bsp       = flag.Bool("bsp", false, "bulk-synchronous instead of asynchronous processing")
		dotFile   = flag.String("dot", "", "write the tree as Graphviz DOT")
		edges     = flag.Bool("edges", false, "print every tree edge")
		compare   = flag.Bool("compare", false, "also run KMB/Mehlhorn/WWW and (|S|<=12) the exact solver")
		mode      = flag.String("mode", "tree", "query mode: tree | forest | prize")
		groups    = flag.String("groups", "", `forest terminal groups as ";"-separated seed lists (e.g. "1,2;7,9")`)
		penalties = flag.String("penalties", "", "prize per-seed penalties, comma-separated, parallel to -seeds")
	)
	flag.Parse()

	var g *dsteiner.Graph
	var stpTerminals []dsteiner.VID
	var err error
	if *stpFile != "" {
		g, stpTerminals, err = loadSTP(*stpFile)
	} else {
		g, err = loadGraph(*graphFile, *dataset, *scale)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: |V|=%d 2|E|=%d weights=[%s]\n",
		g.NumVertices(), g.NumArcs(), weightRange(g))

	qmode, err := dsteiner.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	spec := dsteiner.QuerySpec{Mode: qmode}
	var seedSet []dsteiner.VID
	if qmode == dsteiner.ModeForest {
		spec.Groups, err = parseGroups(*groups)
		if err != nil {
			fatal(err)
		}
		for _, grp := range spec.Groups {
			seedSet = append(seedSet, grp...)
		}
		fmt.Printf("seeds: |S|=%d in %d groups\n", len(seedSet), len(spec.Groups))
	} else {
		if len(stpTerminals) > 0 && *seedsFlag == "" && *k == 0 {
			seedSet = stpTerminals // the instance's own terminal set
		} else {
			seedSet, err = resolveSeeds(g, *seedsFlag, *k, *strategy, *rngSeed)
			if err != nil {
				fatal(err)
			}
		}
		spec.Seeds = seedSet
		fmt.Printf("seeds: |S|=%d\n", len(seedSet))
	}
	if qmode == dsteiner.ModePrize {
		spec.Penalties, err = parsePenalties(*penalties)
		if err != nil {
			fatal(err)
		}
	}

	opts := dsteiner.Defaults(*ranks)
	opts.Queue, err = dsteiner.ParseQueue(*queue)
	if err != nil {
		fatal(err)
	}
	opts.BSP = *bsp

	start := time.Now()
	res, err := dsteiner.SolveQuery(g, spec, opts)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nsteiner tree: %d edges, %d steiner vertices, D(G_S)=%d (%.3fs)\n",
		len(res.Tree), res.SteinerVertices, res.TotalDistance, elapsed.Seconds())
	switch qmode {
	case dsteiner.ModeForest:
		for gi, sub := range res.GroupTrees {
			fmt.Printf("  group %d: %d terminals, %d edges, weight %d\n",
				gi, len(res.Groups[gi]), len(sub), treeWeight(sub))
		}
	case dsteiner.ModePrize:
		fmt.Printf("  kept %d/%d terminals, skipped %v, paid penalty %d, objective %d\n",
			len(res.Seeds)-len(res.Skipped), len(res.Seeds), res.Skipped,
			res.PaidPenalty, res.Objective)
	}
	t := tables.Table{
		Title:  "Per-phase breakdown",
		Header: []string{"Phase", "Time", "Sent", "Processed", "MaxRankWork"},
	}
	for _, ph := range res.Phases {
		t.AddRow(ph.Name, tables.Seconds(ph.Seconds), tables.Count(ph.Sent),
			tables.Count(ph.Processed), tables.Count(ph.MaxRankWork))
	}
	t.Render(os.Stdout)

	if *edges {
		for _, e := range res.Tree {
			fmt.Printf("  %d -- %d  w=%d\n", e.U, e.V, e.W)
		}
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fatal(err)
		}
		dsteiner.WriteDOT(f, res.Tree, res.Seeds)
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotFile)
	}
	if *compare {
		if qmode != dsteiner.ModeTree {
			fatal(fmt.Errorf("-compare applies to tree mode only"))
		}
		runComparison(g, seedSet, res)
	}
}

// parseGroups parses the -groups value: ";"-separated groups of
// ","-separated vertex IDs.
func parseGroups(s string) ([][]dsteiner.VID, error) {
	if s == "" {
		return nil, fmt.Errorf("-mode forest needs -groups (e.g. -groups \"1,2;7,9\")")
	}
	var out [][]dsteiner.VID
	for _, grpStr := range strings.Split(s, ";") {
		var grp []dsteiner.VID
		for _, part := range strings.Split(grpStr, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad group vertex %q: %w", part, err)
			}
			grp = append(grp, dsteiner.VID(id))
		}
		out = append(out, grp)
	}
	return out, nil
}

// parsePenalties parses the -penalties value: ","-separated non-negative
// integers, parallel to the seed list.
func parsePenalties(s string) ([]dsteiner.Dist, error) {
	if s == "" {
		return nil, fmt.Errorf("-mode prize needs -penalties (one per seed)")
	}
	var out []dsteiner.Dist
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad penalty %q: %w", part, err)
		}
		out = append(out, dsteiner.Dist(p))
	}
	return out, nil
}

// treeWeight sums an edge list's weights.
func treeWeight(edges []dsteiner.Edge) dsteiner.Dist {
	var total dsteiner.Dist
	for _, e := range edges {
		total += dsteiner.Dist(e.W)
	}
	return total
}

func loadSTP(path string) (*dsteiner.Graph, []dsteiner.VID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	inst, err := stp.Read(f)
	if err != nil {
		return nil, nil, err
	}
	if inst.Name != "" {
		fmt.Printf("stp instance: %s\n", inst.Name)
	}
	return inst.Graph, inst.Terminals, nil
}

func loadGraph(file, dataset string, scale float64) (*dsteiner.Graph, error) {
	switch {
	case file != "" && dataset != "":
		return nil, fmt.Errorf("use either -graph or -dataset, not both")
	case file != "":
		return dsteiner.LoadGraphFile(file)
	case dataset != "":
		cfg, err := dsteiner.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		if scale > 0 && scale < 1 {
			cfg.N = int(float64(cfg.N) * scale)
			if cfg.N < 64 {
				cfg.N = 64
			}
		}
		return cfg.Build()
	default:
		return nil, fmt.Errorf("need -graph FILE or -dataset NAME (try -dataset LVJ)")
	}
}

func resolveSeeds(g *dsteiner.Graph, explicit string, k int, strategy string, rngSeed int64) ([]dsteiner.VID, error) {
	if explicit != "" {
		var out []dsteiner.VID
		for _, part := range strings.Split(explicit, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad seed %q: %w", part, err)
			}
			out = append(out, dsteiner.VID(id))
		}
		return out, nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("need -seeds LIST or -k N")
	}
	var strat dsteiner.SeedStrategy
	switch strategy {
	case "bfs-level":
		strat = dsteiner.SeedsBFSLevel
	case "uniform":
		strat = dsteiner.SeedsUniformRandom
	case "eccentric":
		strat = dsteiner.SeedsEccentric
	case "proximate":
		strat = dsteiner.SeedsProximate
	default:
		return nil, fmt.Errorf("unknown -strategy %q", strategy)
	}
	return dsteiner.SelectSeeds(g, k, strat, rngSeed)
}

func runComparison(g *dsteiner.Graph, seedSet []dsteiner.VID, res *dsteiner.Result) {
	t := tables.Table{
		Title:  "Comparison with sequential algorithms",
		Header: []string{"Algorithm", "Time", "D(G_S)", "Ratio vs ours"},
	}
	t.AddRow("distributed (ours)", tables.Seconds(res.TotalSeconds()),
		tables.Count(int64(res.TotalDistance)), "1.0000")
	type namedSolver struct {
		name string
		run  func(*dsteiner.Graph, []dsteiner.VID) (dsteiner.BaselineTree, error)
	}
	for _, s := range []namedSolver{
		{"WWW", dsteiner.SolveWWW},
		{"Mehlhorn", dsteiner.SolveMehlhorn},
		{"KMB", dsteiner.SolveKMB},
	} {
		t0 := time.Now()
		tr, err := s.run(g, seedSet)
		if err != nil {
			fatal(err)
		}
		t.AddRow(s.name, tables.Seconds(time.Since(t0).Seconds()),
			tables.Count(int64(tr.Total)),
			tables.Ratio(float64(tr.Total)/float64(res.TotalDistance)))
	}
	if len(seedSet) <= 12 {
		t0 := time.Now()
		_, opt, err := dsteiner.SolveExact(g, seedSet, 0)
		if err == nil {
			t.AddRow("exact (Dreyfus-Wagner)", tables.Seconds(time.Since(t0).Seconds()),
				tables.Count(int64(opt)),
				tables.Ratio(float64(opt)/float64(res.TotalDistance)))
			t.AddNote("approximation ratio D(G_S)/D_min = %s (bound: < 2)",
				tables.Ratio(float64(res.TotalDistance)/float64(opt)))
		}
	}
	t.Render(os.Stdout)
}

func weightRange(g *dsteiner.Graph) string {
	minW, maxW := g.WeightRange()
	return fmt.Sprintf("%d, %d", minW, maxW)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "steiner: %v\n", err)
	os.Exit(1)
}
