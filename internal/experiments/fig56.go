package experiments

import (
	"fmt"

	"dsteiner/internal/core"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/tables"
)

// Fig56 reproduces Fig. 5 (runtime, FIFO vs priority queue) and Fig. 6
// (message counts, same runs) on LVJ, FRS and UKW with |S|=100. The paper's
// shape: the priority queue wins 3.5x–13.1x in runtime and 4.9x–22.1x in
// Voronoi message traffic; collective-based phases show no visitor
// messages.
//
// Both disciplines run the one tentative-label visitor (voronoi.RunRank) and its
// sender-side ghost-row filter, which take more of FIFO's message waste than
// of the priority queue's: the FIFO/priority message ratio is smaller than
// the paper's (see the notes).
func Fig56(cfg Config) ([]tables.Table, error) {
	datasets := []string{"LVJ", "FRS", "UKW07"}
	k := 100
	timeT := tables.Table{
		Title: fmt.Sprintf("Fig. 5: FIFO vs priority queue runtime, |S|=%d (P=%d)", k, cfg.Ranks),
		Header: append([]string{"Graph", "Queue"},
			append(phaseShortNames(), "Total", "Speedup")...),
	}
	msgT := tables.Table{
		Title:  fmt.Sprintf("Fig. 6: message counts by phase, |S|=%d (P=%d)", k, cfg.Ranks),
		Header: []string{"Graph", "Queue", "Voronoi", "LocMinE", "TreeE", "Total", "Improvement"},
	}
	for _, name := range datasets {
		if !contains(cfg.SeedCounts(name), k) {
			continue
		}
		g := cfg.Graph(name)
		seedSet := cfg.Seeds(name, k)
		var fifoTotal float64
		var fifoMsgs int64
		for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority} {
			cfg.logf("fig5/6: %s queue=%v", name, q)
			opts := core.Default(cfg.Ranks)
			opts.Queue = q
			res, err := core.Solve(g, seedSet, opts)
			if err != nil {
				return nil, err
			}
			row := []string{name, q.String()}
			for _, ph := range res.Phases {
				row = append(row, tables.Seconds(ph.Seconds))
			}
			total := res.TotalSeconds()
			speedup := "1.00"
			if q == rt.QueueFIFO {
				fifoTotal = total
			} else if total > 0 {
				speedup = fmt.Sprintf("%.2fx", fifoTotal/total)
			}
			row = append(row, tables.Seconds(total), speedup)
			timeT.AddRow(row...)

			msgs := res.TotalMessages()
			improvement := "1.00"
			if q == rt.QueueFIFO {
				fifoMsgs = msgs
			} else if msgs > 0 {
				improvement = fmt.Sprintf("%.2fx", float64(fifoMsgs)/float64(msgs))
			}
			msgT.AddRow(name, q.String(),
				tables.Count(res.Phase(core.PhaseVoronoi).Sent),
				tables.Count(res.Phase(core.PhaseLocalMinEdge).Sent),
				tables.Count(res.Phase(core.PhaseTreeEdge).Sent),
				tables.Count(msgs), improvement)
		}
	}
	timeT.AddNote("paper: priority queue speedup 3.5x (FRS), 6.2x (UKW), 13.1x (LVJ)")
	msgT.AddNote("paper: message improvement 4.9x (FRS), 6.1x (UKW), 22.1x (LVJ)")
	msgT.AddNote("collective phases (GlbMinE, MST, Prune) send no visitor messages, as in the paper")
	msgT.AddNote("both queues share the tentative-label filter (a row is relaxed when the offer is made), which removes most of FIFO's stale re-expansions: expect a smaller FIFO/priority ratio than the paper's install-at-visit FIFO")
	msgT.AddNote("both queues also share the sender-side filter (a cross-rank offer goes out only if it beats the best one already sent to that vertex) and LocMinE is one halo exchange, a label per boundary vertex and higher peer, not a request and a reply per boundary arc")
	return []tables.Table{timeT, msgT}, nil
}
