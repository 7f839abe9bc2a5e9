package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// Metric is one measured value with its unit and the number of samples
// behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// WorkloadResult is everything one run of one workload measured. A
// metric that does not apply to the workload is absent, not zero.
type WorkloadResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	WindowS    int               `json:"window_s"`
	Load       string            `json:"load"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	EndToEnd   map[string]Metric `json:"end_to_end"`
	Layers     map[string]Metric `json:"per_layer,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Violations []string          `json:"violations,omitempty"`

	// captured holds the record and message shapes the traced run saw,
	// for the probes.
	captured *captures
}

func newResult(w Workload, o Options) *WorkloadResult {
	return &WorkloadResult{
		Workload: w.Name, Seed: o.Seed, WindowS: o.Seconds,
		Load: fmt.Sprintf("closed loop: %d persistent control-port connections to site 1, each waits for its reply line before sending the next command; item and amount from a PRNG seeded by -seed",
			Conns),
		EndToEnd: make(map[string]Metric),
		Layers:   make(map[string]Metric),
	}
}

func (r *WorkloadResult) put(m map[string]Metric, name string, v float64, unit string, samples int) {
	m[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// Run is one invocation: a host fingerprint and the workloads it ran.
type Run struct {
	Fingerprint Fingerprint       `json:"fingerprint"`
	Workloads   []*WorkloadResult `json:"workloads"`
}

// ResultFile is what -out accumulates: one entry per invocation, so a
// set of repeated runs of one commit lives in one file.
type ResultFile struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

const resultSchema = "dvpbench/1"

// LoadResults reads a result file.
func LoadResults(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// AppendRun adds run to the result file at path, creating it if needed.
func AppendRun(path string, run Run) error {
	f, err := LoadResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &ResultFile{Schema: resultSchema}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, run)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Print writes the human-readable report of one workload: every metric
// by name with its unit and sample count.
func (r *WorkloadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d window=%ds  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.WindowS, r.Attempted, r.Failed, r.Correct)
	fmt.Fprintf(w, "   load: %s\n", r.Load)
	section := func(title string, m map[string]Metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, " %s\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d\n", n, m[n].Value, m[n].Unit, m[n].Samples)
		}
	}
	section("end to end", r.EndToEnd)
	section("per layer", r.Layers)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
}

// ContractLine renders the one JSON object the benchmark contract
// wants as the last line of output: with trace off every end-to-end
// metric of the contract, with trace on every per-layer one. The
// contract gives each workload the same metric list, so a metric that
// does not apply to this workload is printed as 0 there (and only
// there; the report and the result file leave it out).
func (r *WorkloadResult) ContractLine(trace bool) (string, error) {
	names := ContractEndToEnd
	if trace {
		names = ContractPerLayer
	}
	metrics := make(map[string]Metric, len(names))
	for _, name := range names {
		m, ok := r.EndToEnd[name]
		if !ok {
			m, ok = r.Layers[name]
		}
		if !ok {
			if !trace {
				return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, name)
			}
			m = Metric{Value: 0, Unit: unitOf(name)}
		}
		metrics[name] = Metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}
