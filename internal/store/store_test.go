package store

import (
	"strings"
	"sync"
	"testing"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
)

func TestCreateAndGet(t *testing.T) {
	d := New()
	if err := d.Create("flight/A", 25); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Get("flight/A"); !ok || v != 25 {
		t.Errorf("Get = %d ok=%v", v, ok)
	}
	if err := d.Create("flight/A", 10); err == nil {
		t.Error("double create must fail")
	}
	if err := d.Create("bad", -1); err == nil {
		t.Error("negative initial quota must fail")
	}
}

func TestValueUnknownIsZero(t *testing.T) {
	d := New()
	if v := d.Value("nope"); v != 0 {
		t.Errorf("unknown item value = %d", v)
	}
}

func TestApplyAdvancesValue(t *testing.T) {
	d := New()
	d.Create("a", 10)
	n, err := d.ApplyAll(3, []wal.Action{{Item: "a", Delta: -4, SetTS: tstamp.Make(5, 2)}})
	if err != nil || n != 1 {
		t.Fatalf("ApplyAll: n=%d err=%v", n, err)
	}
	if v := d.Value("a"); v != 6 {
		t.Errorf("after apply: %d, want 6", v)
	}
	// The stamp is the site's: the store's image is the value alone.
	if snap := d.Snapshot(); len(snap) != 1 || snap[0] != (wal.CheckpointItem{Item: "a", Value: 6}) {
		t.Errorf("snapshot %+v, want a = 6", snap)
	}
}

func TestApplyRejectsNegativeResult(t *testing.T) {
	d := New()
	d.Create("a", 3)
	_, err := d.ApplyAll(12, []wal.Action{{Item: "a", Delta: -5}})
	if err == nil {
		t.Fatal("negative quota must be rejected")
	}
	if !strings.Contains(err.Error(), "LSN 12") {
		t.Errorf("error %q does not name the record", err)
	}
	if d.Value("a") != 3 {
		t.Error("failed apply must not change the value")
	}
}

func TestApplyCreatesUnknownItem(t *testing.T) {
	d := New()
	// A Vm can deliver quota for an item this site never held.
	if _, err := d.ApplyAll(1, []wal.Action{{Item: "new", Delta: 7}}); err != nil {
		t.Fatal(err)
	}
	if d.Value("new") != 7 {
		t.Errorf("value = %d", d.Value("new"))
	}
}

// Every action of a record applies, each once: the LSN names the
// record and skips nothing.
func TestApplyAllCountsApplied(t *testing.T) {
	d := New()
	d.Create("a", 10)
	d.Create("b", 10)
	for i := 0; i < 2; i++ {
		n, err := d.ApplyAll(5, []wal.Action{
			{Item: "a", Delta: -1},
			{Item: "b", Delta: -2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Errorf("applied %d, want 2", n)
		}
	}
	if d.Value("a") != 8 || d.Value("b") != 6 {
		t.Errorf("a=%d b=%d, want 8 and 6", d.Value("a"), d.Value("b"))
	}
}

func TestApplyAllStopsOnError(t *testing.T) {
	d := New()
	d.Create("a", 1)
	_, err := d.ApplyAll(1, []wal.Action{
		{Item: "a", Delta: -5}, // would go negative
		{Item: "a", Delta: 100},
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if d.Value("a") != 1 {
		t.Error("store changed after failed ApplyAll action")
	}
}

func TestItemsSorted(t *testing.T) {
	d := New()
	d.Create("z", 1)
	d.Create("a", 1)
	d.Create("m", 1)
	got := d.Items()
	want := []ident.ItemID{"a", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Items = %v", got)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := New()
	d.Create("a", 10)
	d.Create("b", 20)
	d.ApplyAll(7, []wal.Action{{Item: "a", Delta: -3, SetTS: tstamp.Make(2, 1)}})
	snap := d.Snapshot()

	d2 := New()
	d2.Create("stale", 4)
	d2.RestoreCheckpoint(snap)
	for _, id := range []ident.ItemID{"a", "b"} {
		if v1, v2 := d.Value(id), d2.Value(id); v1 != v2 {
			t.Errorf("%s: %d vs %d", id, v1, v2)
		}
	}
	// The image replaces the contents; no image empties the store.
	if _, ok := d2.Get("stale"); ok {
		t.Error("an item outside the image survived the restore")
	}
	d2.RestoreCheckpoint(nil)
	if n := len(d2.Items()); n != 0 {
		t.Errorf("%d items after restoring no image", n)
	}
}

func TestTotal(t *testing.T) {
	d := New()
	d.Create("a", 10)
	d.Create("b", 5)
	if got := d.Total("a", "b", "missing"); got != 15 {
		t.Errorf("Total = %d", got)
	}
}

func TestConcurrentAppliesConserve(t *testing.T) {
	d := New()
	d.Create("hot", 0)
	const workers = 8
	const per = 100
	var wg sync.WaitGroup
	// Each worker applies increments at distinct LSNs; the sum of all
	// applied deltas must land exactly.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn := uint64(w*per + i + 1)
				if _, err := d.ApplyAll(lsn, []wal.Action{{Item: "hot", Delta: 1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if v := d.Value("hot"); v != core.Value(workers*per) {
		t.Errorf("value = %d, want %d", v, workers*per)
	}
}
