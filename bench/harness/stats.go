// Package harness is dvpbench's library: the workloads and their
// command generator, the multi-process cluster driver, the correctness
// gate, the in-process traced topology, the layer probes, and the
// result/compare arithmetic. Everything here measures dvp from the
// outside — through the control port, /proc, file sizes and the two
// interface seams (wal.Log, wire.Endpoint) the code already has.
package harness

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p ≤ 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. sorted must be ascending and non-empty.
func Percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the fixed set of tail percentiles a report may quote,
// each with the share of samples that lie beyond it as "one in N".
var tailLadder = []struct {
	p      float64
	oneInN int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// TailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n — the highest
// one whose value is not set by a handful of outliers. With fewer than
// twenty samples even the median has under ten beyond it, and the
// median is returned regardless.
func TailPercentile(n int) float64 {
	best := tailLadder[0].p
	for _, t := range tailLadder {
		if n/t.oneInN >= 10 {
			best = t.p
		}
	}
	return best
}

// Median returns the median of vals (mean of the middle two for an
// even count). vals is not modified; an empty slice yields 0.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// IQR is a sample's run-to-run spread: the distance between the first
// and third quartile (the exclusive method, as Python's
// statistics.quantiles(n=4) computes them) for four or more values, the
// full range for two or three, 0 for fewer.
func IQR(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 4 {
		return s[len(s)-1] - s[0]
	}
	return quantileExclusive(s, 0.75) - quantileExclusive(s, 0.25)
}

// Spread is IQR as a share of the median (0 when the median is 0).
func Spread(vals []float64) float64 {
	med := Median(vals)
	if med == 0 {
		return 0
	}
	return IQR(vals) / math.Abs(med)
}

// quantileExclusive interpolates at position q·(n+1) (1-based),
// clamped to the sample's range.
func quantileExclusive(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}
