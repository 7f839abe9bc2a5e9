package harness

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %g", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// gives, because the acceptance procedure is stated in those terms.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 20} // quantiles: 2.75, 5.5, 8.25
	if got, want := IQR(vals), 8.25-2.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("IQR = %g, want %g", got, want)
	}
	if got, want := Spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %g, want %g", got, want)
	}
	if got, want := IQR([]float64{13, 10, 12, 11}), 12.75-10.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("IQR of 4 = %g, want %g", got, want)
	}
	if got := IQR([]float64{3, 9, 5}); got != 6 {
		t.Errorf("three values use the range: %g", got)
	}
	if Spread([]float64{0, 0, 0, 1}) != 0 {
		t.Error("zero median must not divide")
	}
}
