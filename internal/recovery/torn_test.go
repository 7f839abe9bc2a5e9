package recovery

// Torn-checkpoint recovery: a crash while the checkpoint record itself
// is being force-written leaves a torn tail. Opening the file log
// truncates the tear, and recovery must fall back — to the previous
// valid checkpoint if one survives, else to a full-log scan — without
// panicking and without losing any acknowledged commit (every record
// whose Append returned before the crash).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// buildFileHistory writes a history of acked commits to a file log,
// optionally with a valid interior checkpoint, and finishes with a
// final checkpoint record. It returns the log path, the interior
// checkpoint's LSN (0 if none), the on-disk size of the final
// checkpoint record including framing, and the expected item values.
func buildFileHistory(t *testing.T, dir string, interiorCkpt bool) (path string, cp1LSN uint64, finalRecSize int, want map[string]core.Value) {
	t.Helper()
	path = filepath.Join(dir, "site.wal")
	l, err := wal.OpenFileLog(path, wal.FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	db, vm, clock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
	var ctr uint64
	commit := func(item string, delta core.Value) {
		ctr++
		ts := tstamp.Make(ctr, 1)
		rec := &wal.CommitRec{
			Txn:     ts,
			Actions: []wal.Action{{Item: ident.ItemID(item), Delta: delta, SetTS: ts}},
		}
		lsn, err := l.Append(wal.RecCommit, rec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.ApplyAll(lsn, rec.Actions); err != nil {
			t.Fatal(err)
		}
		clock.Observe(ts)
	}
	size := func() int {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	// checkpoint returns the record's LSN and its size on disk, framing
	// included: what its append added to the file.
	checkpoint := func() (uint64, int) {
		payload := (&wal.CheckpointRec{
			Items:    db.Snapshot(),
			Channels: vm.SnapshotChannels(),
			Clock:    clock.Current(),
		}).Encode()
		before := size()
		lsn, err := l.Append(wal.RecCheckpoint, payload)
		if err != nil {
			t.Fatal(err)
		}
		return lsn, size() - before
	}

	commit("a", 30)
	commit("b", 20)
	commit("a", -4)
	if interiorCkpt {
		cp1LSN, _ = checkpoint()
	}
	commit("b", -3)
	commit("c", 12)
	_, finalRecSize = checkpoint()

	want = map[string]core.Value{"a": 26, "b": 17, "c": 12}
	return path, cp1LSN, finalRecSize, want
}

// TestTornCheckpointFallsBack tears the final checkpoint record at
// several offsets — header, mid-payload, last byte — and recovers. With
// an interior checkpoint it must be used; without one, recovery must
// degrade to a full scan. Either way every acked commit survives.
func TestTornCheckpointFallsBack(t *testing.T) {
	for _, interior := range []bool{true, false} {
		interior := interior
		t.Run(fmt.Sprintf("interiorCkpt=%v", interior), func(t *testing.T) {
			base := t.TempDir()
			path, cp1LSN, finalRec, want := buildFileHistory(t, base, interior)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cuts := []int{1, finalRec / 2, finalRec - 1}
			for ci, cut := range cuts {
				tornPath := filepath.Join(base, fmt.Sprintf("torn-%d.wal", ci))
				if err := os.WriteFile(tornPath, img[:len(img)-cut], 0o644); err != nil {
					t.Fatal(err)
				}
				l, err := wal.OpenFileLog(tornPath, wal.FileLogOptions{})
				if err != nil {
					t.Fatalf("cut=%d: torn tail must recover on open: %v", cut, err)
				}
				db, vm, clock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
				sum, err := Recover(l, db, vm, clock)
				if err != nil {
					l.Close()
					t.Fatalf("cut=%d: %v", cut, err)
				}
				if sum.CheckpointLSN != cp1LSN {
					t.Errorf("cut=%d: recovered from checkpoint %d, want %d",
						cut, sum.CheckpointLSN, cp1LSN)
				}
				for item, v := range want {
					if got := db.Value(ident.ItemID(item)); got != v {
						t.Errorf("cut=%d: %s = %d, want %d (acked commit lost)",
							cut, item, got, v)
					}
				}
				// The torn log must keep working: append, reopen, rescan.
				if _, err := l.Append(wal.RecCommit, (&wal.CommitRec{
					Txn:     tstamp.Make(100, 1),
					Actions: []wal.Action{{Item: "a", Delta: 1, SetTS: tstamp.Make(100, 1)}},
				}).Encode()); err != nil {
					t.Errorf("cut=%d: append after torn recovery: %v", cut, err)
				}
				l.Close()
			}
		})
	}
}

// TestTornCheckpointImageMatchesCorpusShape keeps the fuzz seed shape
// honest: tearing a real checkpointed file-log image mid-record and
// reopening exercises the same code path FuzzFileLogRecovery drives
// with chaos-captured images.
func TestTornCheckpointImageMatchesCorpusShape(t *testing.T) {
	base := t.TempDir()
	path, _, finalRec, _ := buildFileHistory(t, base, true)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if finalRec <= 10 {
		t.Fatalf("final checkpoint record implausibly small: %d bytes", finalRec)
	}
	torn := img[:len(img)-finalRec/2]
	if bytes.Equal(torn, img) {
		t.Fatal("tear did not shorten the image")
	}
	p2 := filepath.Join(base, "reopen.wal")
	if err := os.WriteFile(p2, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenFileLog(p2, wal.FileLogOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	n := 0
	if err := l.Scan(1, func(wal.Record) error { n++; return nil }); err != nil {
		t.Fatalf("scan after tear: %v", err)
	}
	if n == 0 {
		t.Error("tear dropped the whole log, not just the torn record")
	}
}

// A batch that holds a RecName and the reference behind it is one frame
// on disk, so a tear drops the two together: what survives refers to no
// ordinal it does not define, and recovers. Tearing anywhere in the
// second batch leaves the first whole; the log then takes the dropped
// ordinal again, for another item.
func TestTornBatchDropsANameWithItsReference(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "site.wal")
	l, err := wal.OpenFileLog(path, wal.FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	named := func(ord uint64, item ident.ItemID, delta core.Value) []wal.BatchEntry {
		return []wal.BatchEntry{
			{Kind: wal.RecName, Data: (&wal.NameRec{Ord: ord, Item: item}).Encode()},
			{Kind: wal.RecCommit, Data: (&wal.CommitRec{Actions: []wal.Action{{Item: item, Delta: delta, Ord: ord}}}).Encode()},
		}
	}
	if _, err := l.AppendBatch(named(1, "a", 7)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	first := int(fi.Size())
	if _, err := l.AppendBatch(named(2, "b", 5)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := first + 1; cut < len(img); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", cut))
		if err := os.WriteFile(torn, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := wal.OpenFileLog(torn, wal.FileLogOptions{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		db := store.New()
		sum, err := Recover(l, db, vmsg.NewManager(), tstamp.NewClock(1))
		if err != nil || l.LastLSN() != 2 {
			t.Fatalf("cut=%d: recovered to LSN %d, %v; want the first batch whole", cut, l.LastLSN(), err)
		}
		if _, held := db.Get("b"); held || db.Value("a") != 7 {
			t.Errorf("cut=%d: a=%d, b held %v; want 7 and no b", cut, db.Value("a"), held)
		}
		if _, err := l.AppendBatch(named(2, "c", 1)); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if _, err := Recover(l, db, vmsg.NewManager(), tstamp.NewClock(1)); err != nil || db.Value("c") != 1 {
			t.Errorf("cut=%d: ordinal 2 taken again: c=%d, %v", cut, db.Value("c"), err)
		}
		checkNames(t, sum.Names, map[ident.ItemID]uint64{"a": 1})
		l.Close()
	}
}
