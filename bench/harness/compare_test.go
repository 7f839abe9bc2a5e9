package harness

import (
	"path/filepath"
	"testing"
)

func fileOf(fp Fingerprint, workload string, metric string, vals ...float64) *ResultFile {
	f := &ResultFile{Schema: resultSchema}
	for _, v := range vals {
		f.Runs = append(f.Runs, Run{Fingerprint: fp, Workloads: []*WorkloadResult{{
			Workload: workload,
			EndToEnd: map[string]Metric{metric: {Value: v, Unit: catalogByName[metric].Unit}},
		}}})
	}
	return f
}

func scale(f float64, vals ...float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	fp := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Kernel: "k", FSType: "ext4", FsyncUs: 150}
	gb := catalogByName["goodput_ops_s"].Bound // the cases follow the catalog's bounds
	pb := catalogByName["commit_p50_ms"].Bound
	for _, c := range []struct {
		name, workload, metric string
		a, b                   []float64
		want                   string
	}{
		{"steady and equal", "local_durable", "goodput_ops_s", []float64{2800, 2810, 2790}, []float64{2805, 2795, 2800}, VerdictOK},
		{"goodput down by more than its bound", "local_durable", "goodput_ops_s", []float64{2800, 2810, 2790}, scale(1-gb-0.03, 2800, 2810, 2790), VerdictRegressed},
		{"goodput down by less than its bound", "local_durable", "goodput_ops_s", []float64{2800, 2810, 2790}, scale(1-gb+0.03, 2800, 2810, 2790), VerdictOK},
		{"goodput up is never a regression", "local_durable", "goodput_ops_s", []float64{2800, 2810, 2790}, []float64{3500, 3510, 3490}, VerdictOK},
		{"latency up by more than its bound", "local_cpu", "commit_p50_ms", []float64{0.10, 0.10, 0.10}, scale(1+pb+0.03, 0.10, 0.10, 0.10), VerdictRegressed},
		{"spread wider than bound", "local_cpu", "commit_p50_ms", scale(1, 0.10, 0.10+pb/5, 0.10-pb/10), scale(1, 0.10, 0.10+pb/10, 0.10-pb/10), VerdictUnresolved},
		{"wide spread but every run better", "local_cpu", "commit_p50_ms", scale(1, 0.10, 0.10+pb/5, 0.10-pb/10), []float64{0.05, 0.06, 0.055}, VerdictOK},
		{"fail_share +0.01 absolute (bound 0.005)", "local_durable", "fail_share", []float64{0.010, 0.011, 0.010}, []float64{0.020, 0.021, 0.020}, VerdictRegressed},
		{"fail_share +0.01 on hot item (bound 0.02)", "hot_item_durable", "fail_share", []float64{0.050, 0.051, 0.050}, []float64{0.060, 0.061, 0.060}, VerdictOK},
	} {
		rows, err := Compare(fileOf(fp, c.workload, c.metric, c.a...), fileOf(fp, c.workload, c.metric, c.b...))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: got %+v, want verdict %s", c.name, rows, c.want)
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	fp := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Kernel: "k", FSType: "ext4", FsyncUs: 150}
	a := fileOf(fp, "local_cpu", "goodput_ops_s", 1, 1, 1)
	for name, change := range map[string]func(*Fingerprint){
		"cores":      func(f *Fingerprint) { f.NumCPU = 8 },
		"filesystem": func(f *Fingerprint) { f.FSType = "tmpfs" },
		"fsync ×5":   func(f *Fingerprint) { f.FsyncUs = 750 },
	} {
		other := fp
		change(&other)
		if _, err := Compare(a, fileOf(other, "local_cpu", "goodput_ops_s", 1, 1, 1)); err == nil {
			t.Errorf("%s differs, yet Compare called the results comparable", name)
		}
	}
	near := fp
	near.FsyncUs = 300
	if _, err := Compare(a, fileOf(near, "local_cpu", "goodput_ops_s", 1, 1, 1)); err != nil {
		t.Errorf("fsync 150 vs 300 µs is one shared host on two days: %v", err)
	}
}

func TestResultFileAccumulatesRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	for i := 0; i < 3; i++ {
		if err := AppendRun(path, Run{Workloads: []*WorkloadResult{{Workload: "local_cpu", Seed: int64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 3 || f.Runs[2].Workloads[0].Seed != 2 {
		t.Errorf("runs = %+v", f.Runs)
	}
}
