package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if c.Value() != 8005 {
		t.Errorf("counter = %d", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	durations := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 100 * time.Millisecond,
	}
	for _, d := range durations {
		h.Record(d)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 21*time.Millisecond || mean > 23*time.Millisecond {
		t.Errorf("mean = %v, want ~22ms", mean)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Millisecond || p50 > 560*time.Millisecond {
		t.Errorf("p50 = %v, want ~500ms (±10%%)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Errorf("p99 = %v, want ~990ms", p99)
	}
	// Quantile never exceeds the recorded max.
	if h.Quantile(1.0) > h.Max() {
		t.Errorf("q(1.0)=%v exceeds max %v", h.Quantile(1.0), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	if h.Min() != 0 {
		t.Errorf("negative duration recorded as %v", h.Min())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestSnapshot(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Mean != 2*time.Millisecond {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1 demo", "sites", "tps", "p99")
	tb.AddRow(4, 123.456, 7*time.Millisecond)
	tb.AddRow(8, 99.9, 12340*time.Microsecond)
	out := tb.String()
	if !strings.Contains(out, "== T1 demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "123.46") {
		t.Errorf("float formatting: %s", out)
	}
	if !strings.Contains(out, "7.00ms") || !strings.Contains(out, "12.34ms") {
		t.Errorf("duration formatting: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(1, 2)
	csv := tb.CSV()
	if csv != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestTableRowsIsCopy(t *testing.T) {
	tb := NewTable("x", "a")
	tb.AddRow("v")
	rows := tb.Rows()
	rows[0][0] = "mutated"
	if tb.Rows()[0][0] != "v" {
		t.Error("Rows must return a copy")
	}
}

// logBucket is the formula that defines the buckets: bucketFor's
// reference.
func logBucket(d time.Duration) int {
	us := float64(d.Microseconds())
	if us < 1 {
		return 0
	}
	b := int(math.Log(us) / math.Log(growth))
	if b < 0 {
		b = 0
	}
	if b >= bucketCount {
		b = bucketCount - 1
	}
	return b
}

// TestBucketForMatchesLog checks the table search against the formula
// at every bucket bound, a microsecond either side of it, and over a
// seeded spread of durations from nanoseconds to days.
func TestBucketForMatchesLog(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketFor(d), logBucket(d); got != want {
			t.Fatalf("bucketFor(%v) = %d, the formula says %d", d, got, want)
		}
	}
	for _, d := range []time.Duration{-time.Second, 0, 1, 999, time.Microsecond, math.MaxInt64} {
		check(d)
	}
	for b := 0; b < bucketCount; b++ {
		for _, us := range []int64{bucketLow[b], bucketUpper(b).Microseconds()} {
			for delta := int64(-1); delta <= 1; delta++ {
				check(time.Duration(us+delta) * time.Microsecond)
				check(time.Duration(us+delta)*time.Microsecond + 999) // sub-microsecond remainders truncate
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 1 ns .. ~3 days, so every bucket is visited.
		check(time.Duration(math.Exp(rng.Float64() * math.Log(3*24*float64(time.Hour)))))
	}
}
