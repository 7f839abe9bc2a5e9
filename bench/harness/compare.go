package harness

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"  // B's median is worse than A's by more than the bound
	VerdictUnresolved = "unresolved" // run-to-run spread is wider than the bound
)

// CompareRow is one line of -compare: both medians, how much worse B
// is (negative: better), the bound, each side's spread, the verdict.
type CompareRow struct {
	Workload, Metric string
	A, B             float64
	Worse            float64 // share of A's median; absolute for an AbsBound metric
	Bound            float64
	Absolute         bool
	SpreadA, SpreadB float64
	RunsA, RunsB     int
	Verdict          string
}

// boundFor is the regression bound of an end-to-end metric on a
// workload.
func boundFor(d MetricDef, workload string) (bound float64, absolute bool) {
	if d.AbsBound > 0 {
		if wider, ok := failAbsBound[workload]; ok && d.Name == "fail_share" {
			return wider, true
		}
		return d.AbsBound, true
	}
	return d.Bound, false
}

// collect gathers, per workload and end-to-end metric, one value per run.
func collect(f *ResultFile) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, run := range f.Runs {
		for _, w := range run.Workloads {
			if out[w.Workload] == nil {
				out[w.Workload] = make(map[string][]float64)
			}
			for name, m := range w.EndToEnd {
				out[w.Workload][name] = append(out[w.Workload][name], m.Value)
			}
		}
	}
	return out
}

// Compare sets result file b (the change) against a (the baseline).
// It refuses when any two runs involved come from hosts whose
// fingerprints differ.
func Compare(a, b *ResultFile) ([]CompareRow, error) {
	if len(a.Runs) == 0 || len(b.Runs) == 0 {
		return nil, fmt.Errorf("compare: a result file holds no runs")
	}
	ref := a.Runs[0].Fingerprint
	for _, f := range []*ResultFile{a, b} {
		for i, run := range f.Runs {
			if err := ref.Comparable(run.Fingerprint); err != nil {
				return nil, fmt.Errorf("compare: run %d is not comparable with the baseline's first run: %w", i+1, err)
			}
		}
	}
	va, vb := collect(a), collect(b)
	var rows []CompareRow
	for _, w := range Workloads {
		for _, d := range Catalog {
			if !d.EndToEnd {
				continue
			}
			xs, ys := va[w.Name][d.Name], vb[w.Name][d.Name]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			row := CompareRow{Workload: w.Name, Metric: d.Name, A: Median(xs), B: Median(ys), RunsA: len(xs), RunsB: len(ys)}
			row.Bound, row.Absolute = boundFor(d, w.Name)
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			row.Worse = sign * (row.B - row.A)
			if row.Absolute {
				row.SpreadA, row.SpreadB = IQR(xs), IQR(ys)
			} else {
				row.SpreadA, row.SpreadB = Spread(xs), Spread(ys)
				if row.A != 0 {
					row.Worse /= row.A
				}
			}
			row.Verdict = verdict(row, xs, ys, sign)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func verdict(row CompareRow, xs, ys []float64, sign float64) string {
	if row.Worse > row.Bound {
		return VerdictRegressed
	}
	if max(row.SpreadA, row.SpreadB) <= row.Bound {
		return VerdictOK
	}
	// Spread wider than the bound: "no worse" can only be said when
	// every run of the change reads better than every run of the
	// baseline.
	sx, sy := append([]float64(nil), xs...), append([]float64(nil), ys...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	if (sign > 0 && sy[len(sy)-1] < sx[0]) || (sign < 0 && sy[0] > sx[len(sx)-1]) {
		return VerdictOK
	}
	return VerdictUnresolved
}

// PrintCompare writes the comparison table and returns how many rows
// are not ok.
func PrintCompare(w io.Writer, rows []CompareRow) int {
	bad := 0
	fmt.Fprintf(w, "%-18s %-17s %12s %12s %9s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, r := range rows {
		pct := func(v float64) string {
			if r.Absolute {
				return fmt.Sprintf("%+.4f", v)
			}
			return fmt.Sprintf("%+.1f%%", 100*v)
		}
		fmt.Fprintf(w, "%-18s %-17s %12.4f %12.4f %9s %8s %8s %8s  %s (n=%d,%d)\n",
			r.Workload, r.Metric, r.A, r.B, pct(r.Worse), pct(r.Bound)[1:], pct(r.SpreadA)[1:], pct(r.SpreadB)[1:], r.Verdict, r.RunsA, r.RunsB)
		if r.Verdict != VerdictOK {
			bad++
		}
	}
	return bad
}
