// Package metrics provides the measurement substrate for the
// experiment harness: concurrency-safe counters, log-bucketed latency
// histograms with quantile estimation, and fixed-width table rendering
// for experiment output (the repo's replacement for the tables and
// figures the paper never included).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing concurrency-safe counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a log-bucketed duration histogram: buckets are
// exponential with ~10% resolution, spanning 1µs to ~1000s. It is
// concurrency-safe and allocation-free on the record path: every field
// is an atomic, so concurrent recorders never serialize on a lock.
// Readers see each field atomically but the set of fields only
// approximately consistently — fine for monitoring, which is the
// intended use.
type Histogram struct {
	buckets [bucketCount]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	// min is stored offset by +1 so the zero value means "unset"
	// (observations are clamped non-negative, so real minima are ≥ 0).
	min atomic.Int64
	max atomic.Int64
}

const (
	bucketCount = 240
	// growth chosen so bucketCount buckets cover 1µs..~10⁹µs.
	growth = 1.1
)

// bucketLow[b] is the smallest whole number of microseconds that falls
// in bucket b ≥ 1: the first us with ⌊ln(us)/ln(growth)⌋ ≥ b. Each is
// found once, by that very formula, so bucketFor's table search puts
// every duration in the bucket the formula would.
var bucketLow = func() (low [bucketCount]int64) {
	for b := 1; b < bucketCount; b++ {
		lo, hi := max(low[b-1], 1), int64(math.Pow(growth, float64(b)))+2
		for lo < hi { // the formula is monotone in us
			mid := lo + (hi-lo)/2
			if int(math.Log(float64(mid))/math.Log(growth)) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		low[b] = lo
	}
	return low
}()

// bucketAtBits[n] is the highest bucket whose bucketLow has at most n
// bits: where bucketFor's search starts for a count of n bits.
var bucketAtBits = func() (at [64]uint8) {
	for n := range at {
		for b := 1; b < bucketCount && bits.Len64(uint64(bucketLow[b])) <= n; b++ {
			at[n] = uint8(b)
		}
	}
	return at
}()

// bucketFor is ⌊ln(us)/ln(growth)⌋ for a duration of us whole
// microseconds, clamped to the buckets: the bucket the table of lower
// bounds puts it in, searched from the highest bucket that starts below
// us's top bit — at most the eight buckets one power of two spans.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := int(bucketAtBits[bits.Len64(uint64(us))-1])
	for b+1 < bucketCount && bucketLow[b+1] <= us {
		b++
	}
	return b
}

func bucketUpper(b int) time.Duration {
	us := math.Pow(growth, float64(b+1))
	return time.Duration(us) * time.Microsecond
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
	enc := int64(d) + 1
	for {
		cur := h.min.Load()
		if cur != 0 && enc >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, enc) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()) / time.Duration(n)
}

// Min and Max return the observed extremes.
func (h *Histogram) Min() time.Duration {
	enc := h.min.Load()
	if enc == 0 {
		return 0
	}
	return time.Duration(enc - 1)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the upper bound of
// the bucket containing it (≤10% overestimate by construction).
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	max := h.Max()
	target := uint64(q * float64(count))
	if target >= count {
		return max
	}
	var cum uint64
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		if cum > target {
			up := bucketUpper(b)
			if up > max {
				return max
			}
			return up
		}
	}
	return max
}

// ForEachBucket calls fn for every non-empty bucket in ascending
// order, with the bucket's upper bound and its (non-cumulative)
// count. Exposition formats (Prometheus) rebuild cumulative counts
// from this.
func (h *Histogram) ForEachBucket(fn func(upper time.Duration, count uint64)) {
	for b := range h.buckets {
		if n := h.buckets[b].Load(); n > 0 {
			fn(bucketUpper(b), n)
		}
	}
}

// Snapshot captures the distribution's headline numbers.
type Snapshot struct {
	Count          uint64
	Mean, P50, P99 time.Duration
	Min, Max       time.Duration
}

// Snapshot returns the headline numbers in one lock acquisition-ish.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// Table accumulates experiment rows and renders them fixed-width —
// the output format of every T*/F* experiment.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are stringified with %v, durations in
// milliseconds, floats with 2 decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

func formatCell(c any) string {
	switch v := c.(type) {
	case time.Duration:
		return fmt.Sprintf("%.2fms", float64(v.Microseconds())/1000)
	case float64:
		return fmt.Sprintf("%.2f", v)
	case float32:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%v", c)
	}
}

// Rows returns the accumulated rows (for tests and CSV export).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
	}
	sb.WriteByte('\n')
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}
