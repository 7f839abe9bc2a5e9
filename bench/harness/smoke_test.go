package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// absentOn lists, per metric, where it may legitimately be missing:
// a metric that does not apply to a workload is left out, not zeroed.
func mayBeAbsent(metric string, w Workload) bool {
	sendsMessages := w.Name == "shortfall_durable" || w.Name == "audit_mix" || w.Name == "crash_restart"
	switch metric {
	case "read_p50_ms", "read_p99_ms":
		return w.Name != "audit_mix"
	case "restart_p50_ms", "recovery.records_scanned", "recovery.scan_ms", "recovery.process_start_ms":
		return w.restartsPerSecond == 0
	case "wal.fsync_mean_us":
		return !w.Sync
	case "site.inbound_request_us", "site.inbound_vm_us", "site.inbound_ack_us",
		"tcpnet.send_ns", "tcpnet.transit_us", "vmsg.ack_rtt_mean_us":
		return !sendsMessages
	}
	return false
}

// TestSmokeEveryWorkload runs every workload end to end against real
// dvpnode processes with a 1 s window and a shrunken set-up, and checks
// that the gate passes and every catalogued metric is there with its
// unit — in the report and in both forms of the contract line.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns dvpnode processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dvpnode")
	if out, err := exec.Command("go", "build", "-o", bin, "dvp/cmd/dvpnode").CombinedOutput(); err != nil {
		t.Fatalf("build dvpnode: %v\n%s", err, out)
	}
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			o := Options{NodeBin: bin, WorkDir: dir, Seed: 1, Seconds: 1, Trace: true, Setups: 1, WarmupOps: 100, TracedOps: 100}
			res, err := RunWorkload(context.Background(), o, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("gate failed: %v", res.Violations)
			}
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			for _, d := range Catalog {
				m, ok := res.Layers[d.Name]
				if d.EndToEnd {
					m, ok = res.EndToEnd[d.Name]
				}
				switch {
				case !ok && !mayBeAbsent(d.Name, w):
					t.Errorf("metric %s missing", d.Name)
				case ok && m.Unit != d.Unit:
					t.Errorf("metric %s has unit %q, catalog says %q", d.Name, m.Unit, d.Unit)
				case ok && d.Universal && m.Value <= 0:
					t.Errorf("end-to-end metric %s = %g, must never be 0", d.Name, m.Value)
				}
			}
			for name := range res.Layers {
				if _, known := catalogByName[name]; !known {
					t.Errorf("metric %s is not in the catalog", name)
				}
			}
			for _, trace := range []bool{false, true} {
				line, err := res.ContractLine(trace)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil || strings.Contains(line, "\n") {
					t.Fatalf("contract line %q: %v", line, err)
				}
				want := ContractEndToEnd
				if trace {
					want = ContractPerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(got.Metrics), len(want))
				}
				for _, name := range want {
					if m, ok := got.Metrics[name]; !ok || m.Value == nil || m.Unit != unitOf(name) {
						t.Errorf("trace=%v: metric %s missing or without value/unit in %s", trace, name, line)
					}
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "run-*")); len(left) != 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

// BENCHMARK.json is generated from the catalog (dvpbench -contract);
// a bound or a metric changed in one place only fails here.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with: go -C bench run ./cmd/dvpbench -contract > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range Catalog {
		if seen[d.Name] {
			t.Errorf("metric %s is catalogued twice", d.Name)
		}
		seen[d.Name] = true
		if d.Universal && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.EndToEnd && d.Bound == 0 && d.AbsBound == 0 {
			t.Errorf("%s: end-to-end metric without a bound", d.Name)
		}
	}
}
