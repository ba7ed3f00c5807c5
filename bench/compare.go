package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// comparison is one row: one end-to-end metric of one workload, in the
// base file and in the file under test.
type comparison struct {
	workload string
	def      metricDef
	base, to []float64
	verdict  string
}

// worseBy is how much worse v is than base, as a share of base, in the
// metric's own direction; negative when v is better.
func (d metricDef) worseBy(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "lower" {
		return (v - base) / base
	}
	return (base - v) / base
}

// judge gives the verdict for one metric. A median worse than the base's
// by more than the bound is worse. Where either side's run-to-run spread
// is wider than the bound the comparison cannot resolve a change of that
// size and says so, unless every run under test beats every base run.
func judge(d metricDef, base, to []float64) string {
	if len(base) == 0 || len(to) == 0 {
		return verdictMissing
	}
	if spread(base) > d.Bound || spread(to) > d.Bound {
		for _, b := range base {
			for _, t := range to {
				if d.worseBy(b, t) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictOK
	}
	if d.worseBy(median(base), median(to)) > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

// values collects one end-to-end metric of one workload over a file's
// valid runs.
func (rf *resultFile) values(workload, name string) []float64 {
	var v []float64
	for _, r := range rf.Runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload && r.ok() {
			v = append(v, m.Value)
		}
	}
	return v
}

func compareResults(base, to *resultFile) []comparison {
	var rows []comparison
	for _, sp := range specs {
		for _, d := range endToEnd {
			c := comparison{workload: sp.Name, def: d, base: base.values(sp.Name, d.Name), to: to.values(sp.Name, d.Name)}
			if len(c.base) == 0 && len(c.to) == 0 {
				continue // the workload is in neither file
			}
			c.verdict = judge(d, c.base, c.to)
			rows = append(rows, c)
		}
	}
	return rows
}

// compareFiles prints one row per workload and end-to-end metric and
// exits nonzero if any is worse or missing.
func compareFiles(out io.Writer, basePath, toPath string) (int, error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return exitFailed, err
	}
	to, err := readResultFile(toPath)
	if err != nil {
		return exitFailed, err
	}
	rows := compareResults(base, to)
	if len(rows) == 0 {
		return exitFailed, fmt.Errorf("no workload of the benchmark is in %s or %s", basePath, toPath)
	}
	fmt.Fprintf(out, "base %s (%d runs)   under test %s (%d runs)\n", basePath, len(base.Runs), toPath, len(to.Runs))
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tspread\ttest median\tspread\ttest/base\tbound\tverdict")
	code := exitOK
	for _, c := range rows {
		b, t := median(c.base), median(c.to)
		rel := "-"
		if b != 0 && len(c.to) > 0 {
			rel = fmt.Sprintf("%.3f of %.4g", t/b, b)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.3f\t%.4g\t%.3f\t%s\t%.2f %s\t%s\n",
			c.workload, c.def.Name, c.def.Unit, b, spread(c.base), t, spread(c.to), rel, c.def.Bound, c.def.Better, c.verdict)
		if c.verdict == verdictWorse || c.verdict == verdictMissing {
			code = exitFailed
		}
	}
	tw.Flush()
	return code, nil
}
