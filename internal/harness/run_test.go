package harness

import (
	"strings"
	"testing"
)

// runQuick executes one experiment in Quick mode and applies generic
// sanity checks: rows exist, notes exist, no FAIL marker in any cell.
func runQuick(t *testing.T, id string) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	rows := res.Table.Rows()
	if len(rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range rows {
		for _, cell := range row {
			if strings.Contains(cell, "FAIL") {
				t.Errorf("%s row contains FAIL: %v", id, row)
			}
		}
	}
	if len(res.Notes) == 0 {
		t.Errorf("%s has no interpretation notes", id)
	}
	return res
}

// The cheap experiments run end to end in CI; the expensive ones are
// exercised by `go test -bench` and cmd/dvpsim.
func TestRunF6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "F6")
	// Conservation column: N must strictly decrease by 10 per step.
	rows := res.Table.Rows()
	if rows[0][6] != "100" {
		t.Errorf("F6 initial N = %s, want 100", rows[0][6])
	}
}

func TestRunA2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "A2")
	// 3 Zipf skews × 2 rebalancer modes.
	if len(res.Table.Rows()) != 6 {
		t.Errorf("A2 rows = %d, want 6 (3 skews × 2 modes)", len(res.Table.Rows()))
	}
}

func TestRunA3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "A3")
	if len(res.Table.Rows()) != 3 {
		t.Errorf("A3 rows = %d, want 3 policies", len(res.Table.Rows()))
	}
}

func TestRunA1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "A1")
	if len(res.Table.Rows()) != 2 {
		t.Errorf("A1 rows = %d, want 2 (off/on)", len(res.Table.Rows()))
	}
}

func TestRunP1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "P1")
	// Quick sweep: 2 site counts × 2 committer counts.
	if got := len(res.Table.Rows()); got != 4 {
		t.Errorf("P1 rows = %d, want 4", got)
	}
}

func TestRunP2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "P2")
	rows := res.Table.Rows()
	if len(rows) != 3 {
		t.Fatalf("P2 rows = %d, want 3 shares", len(rows))
	}
	// First row is the 100% local share: the fast path must carry
	// essentially the whole workload (hit-rate is column 4).
	if hit := rows[0][4]; !strings.HasPrefix(hit, "1") && !strings.HasPrefix(hit, "0.9") {
		t.Errorf("P2 all-local hit rate = %s, want ≥ 0.9", hit)
	}
}

func TestRunN1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "N1")
	rows := res.Table.Rows()
	if len(rows) != 1 {
		t.Fatalf("N1 rows = %d, want 1", len(rows))
	}
	// The run must actually commit through both windows; the mode
	// label is column 0, throughput columns 1–2.
	for _, row := range rows {
		for col := 1; col <= 2; col++ {
			if row[col] == "0" || row[col] == "0.0" {
				t.Errorf("N1 %s window tps = %s, want > 0 (row %v)", row[0], row[col], row)
			}
		}
	}
}

func TestRunT5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	res := runQuick(t, "T5")
	// Every row must carry an explicit serializability PASS.
	for _, row := range res.Table.Rows() {
		if !strings.Contains(row[4], "PASS") {
			t.Errorf("T5 row without PASS: %v", row)
		}
	}
}
