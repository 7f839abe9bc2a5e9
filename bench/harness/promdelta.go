package harness

import (
	"strings"

	"dvp/internal/ctl"
)

// Snapshot is one node's METRICS reply, keyed by series (name plus
// label block), with the number of sample lines it held.
type Snapshot struct {
	samples map[string]float64
	Series  int
}

// ParseSnapshot builds a Snapshot from a METRICS reply's lines.
func ParseSnapshot(lines []string) (Snapshot, error) {
	ms, err := ctl.ParseMetrics(lines)
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{samples: make(map[string]float64, len(ms)), Series: len(ms)}
	for _, m := range ms {
		s.samples[m.Key()] = m.Value
	}
	return s, nil
}

// match reports whether series key is metric name with every one of
// the label fragments (e.g. `outcome="committed"`) in its label block.
func match(key, name string, labels []string) bool {
	rest, ok := strings.CutPrefix(key, name)
	if !ok || (rest != "" && rest[0] != '{') {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(rest, l) {
			return false
		}
	}
	return true
}

// Sum adds the current value of every series of name whose label block
// holds all the given fragments (gauges: pending Vm, peer state).
func (s Snapshot) Sum(name string, labels ...string) float64 {
	var sum float64
	for k, v := range s.samples {
		if match(k, name, labels) {
			sum += v
		}
	}
	return sum
}

// Delta is the counter arithmetic between two snapshots of one node:
// per matching series, after − before. A series that went down was
// reset by a process restart in between (counters are process-local and
// restart at zero), so what it counted since is its new value, never a
// negative number; a series absent before counts from zero.
func Delta(before, after Snapshot, name string, labels ...string) float64 {
	var sum float64
	for k, a := range after.samples {
		if !match(k, name, labels) {
			continue
		}
		if b := before.samples[k]; a >= b {
			sum += a - b
		} else {
			sum += a
		}
	}
	return sum
}
