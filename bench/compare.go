package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// e2eMetric is one end-to-end metric as BENCHMARK.json declares it. bound is
// the share of the baseline's median by which it may get worse before that
// counts as a regression.
type e2eMetric struct {
	name         string
	unit         string
	higherBetter bool
	bound        float64
}

// endToEnd mirrors BENCHMARK.json's end_to_end list; the smoke test holds
// the two together.
var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"slowdown_vs_seq", "ratio", false, 0.25},
	{"lat_vs_seq_p50", "ratio", false, 0.25},
	{"objective_vs_seq", "ratio", false, 0.05},
	{"rss_mb", "MB", false, 0.20},
}

// side is one side of a comparison: the untraced reports of one or more
// results files, by workload.
type side map[string][]*report

func loadSide(arg string) (side, error) {
	s := side{}
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range res.Runs {
			if !r.Trace {
				s[r.Workload] = append(s[r.Workload], r)
			}
		}
	}
	return s, nil
}

// values is the series a side has for a metric: one value per run. (A run's
// own per-instance series is no substitute: it is two-humped by nature, and
// its quartiles say nothing about how well the run's mean repeats.)
func (s side) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range s[workload] {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (s side) failedFrac(workload string) float64 {
	var failed, attempted int
	for _, r := range s[workload] {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict compares B with baseline A for one metric. A difference only
// counts when neither side's own spread (quartile distance over median, over
// its runs) exceeds the bound; beyond that the run-to-run noise could hide or
// fake it. A side of one run has no spread to show, so give each side three
// runs or more.
func verdict(m e2eMetric, a, b []float64) (string, [3]float64, [3]float64) {
	qa, qb := quartiles(a), quartiles(b)
	if len(a) == 0 || len(b) == 0 || qa[1] == 0 {
		return "unresolved", qa, qb
	}
	if (qa[2]-qa[0])/qa[1] > m.bound || (qb[2]-qb[0])/qb[1] > m.bound {
		return "unresolved", qa, qb
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if m.higherBetter {
		worse = -worse
	}
	switch {
	case worse > m.bound:
		return "worse", qa, qb
	case worse < -m.bound:
		return "better", qa, qb
	}
	return "unchanged", qa, qb
}

// compareMain prints one row per workload and end-to-end metric and returns
// the exit status: 1 on any "worse" or any rise in failed answers.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b side
		if b, err = loadSide(args[1]); err == nil {
			return compareSides(a, b, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareSides(a, b side, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-20s %-17s %-6s %36s %36s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v, qa, qb := verdict(m, a.values(wl.name, m.name), b.values(wl.name, m.name))
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-17s %-6s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g]  %s\n",
				wl.name, m.name, m.unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], v)
		}
		fa, fb := a.failedFrac(wl.name), b.failedFrac(wl.name)
		v := "unchanged"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Fprintf(w, "%-20s %-17s %-6s %12.5g %36.5g  %s\n", wl.name, "failed_frac", "frac", fa, fb, v)
	}
	return code
}
