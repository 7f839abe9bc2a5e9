package wal

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCompactGeneric(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			defer l.Close()
			for i := 0; i < 10; i++ {
				l.Append(RecCommit, []byte{byte(i)})
			}
			if err := l.Compact(7); err != nil {
				t.Fatal(err)
			}
			var lsns []uint64
			l.Scan(1, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
			if len(lsns) != 3 || lsns[0] != 8 || lsns[2] != 10 {
				t.Fatalf("post-compact LSNs = %v, want [8 9 10]", lsns)
			}
			// Appends continue the sequence.
			lsn, err := l.Append(RecApplied, nil)
			if err != nil || lsn != 11 {
				t.Fatalf("append after compact: lsn=%d err=%v", lsn, err)
			}
		})
	}
}

func TestCompactEverything(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			defer l.Close()
			for i := 0; i < 5; i++ {
				l.Append(RecCommit, nil)
			}
			if err := l.Compact(5); err != nil {
				t.Fatal(err)
			}
			var n int
			l.Scan(1, func(Record) error { n++; return nil })
			if n != 0 {
				t.Fatalf("%d records survive full compaction", n)
			}
			// LSNs never rewind.
			if lsn, _ := l.Append(RecCommit, nil); lsn != 6 {
				t.Fatalf("append after full compaction: lsn=%d, want 6", lsn)
			}
		})
	}
}

func TestCompactNothing(t *testing.T) {
	l := NewMemLog()
	l.Append(RecCommit, nil)
	if err := l.Compact(0); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 1 {
		t.Error("Compact(0) must keep everything")
	}
}

func TestFileLogCompactSurvivesReopen(t *testing.T) {
	path := t.TempDir() + "/c.wal"
	l, _ := OpenFileLog(path, FileLogOptions{})
	for i := 0; i < 6; i++ {
		l.Append(RecCommit, []byte{byte(i)})
	}
	if err := l.Compact(4); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen: the file starts at LSN 5 — legal for a compacted log.
	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 6 {
		t.Fatalf("LastLSN after reopen = %d, want 6", l2.LastLSN())
	}
	var first uint64
	l2.Scan(1, func(r Record) error {
		if first == 0 {
			first = r.LSN
		}
		return nil
	})
	if first != 5 {
		t.Errorf("first record = %d, want 5", first)
	}
	if lsn, _ := l2.Append(RecApplied, nil); lsn != 7 {
		t.Errorf("append = %d, want 7", lsn)
	}
}

// A compaction that keeps nothing leaves a header stating the next
// LSN, so a reopen neither rewinds LSNs below what the store has
// applied nor reuses one.
func TestFileLogCompactEverythingSurvivesReopen(t *testing.T) {
	path := t.TempDir() + "/c.wal"
	l, _ := OpenFileLog(path, FileLogOptions{})
	for i := 0; i < 5; i++ {
		l.Append(RecCommit, []byte{byte(i)})
	}
	if err := l.Compact(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 5 {
		t.Fatalf("LastLSN after reopen = %d, want 5", l2.LastLSN())
	}
	if lsn, err := l2.Append(RecCommit, nil); err != nil || lsn != 6 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want 6", lsn, err)
	}
	l2.Close()
	l3, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	var lsns []uint64
	l3.Scan(1, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
	if len(lsns) != 1 || lsns[0] != 6 || l3.LastLSN() != 6 {
		t.Errorf("second reopen: records %v, LastLSN %d; want [6], 6", lsns, l3.LastLSN())
	}
}

func TestFileLogCompactThenCorruptTail(t *testing.T) {
	path := t.TempDir() + "/c.wal"
	l, _ := OpenFileLog(path, FileLogOptions{})
	for i := 0; i < 4; i++ {
		l.Append(RecCommit, []byte("payload"))
	}
	l.Compact(2)
	l.Append(RecCommit, []byte("tail"))
	l.Close()
	// Tear the last record.
	truncateBy(t, path, 3)
	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 4 {
		t.Errorf("LastLSN = %d, want 4 (torn record 5 dropped)", l2.LastLSN())
	}
}

func truncateBy(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestCompactConcurrentWithGroupFlush is the checkpointing interleave:
// appenders parked on the group-commit flusher while Compact runs
// against the inner file log, with concurrent Scans auditing the image.
// The durable LSN must never regress, every acknowledged append above
// the compaction bound must survive, and no Scan may observe a torn or
// out-of-order image. Before FileLog.Scan snapshotted its own read fd,
// a compaction's rename under a concurrent scan could surface reads
// from a closed or half-swapped file.
func TestCompactConcurrentWithGroupFlush(t *testing.T) {
	inner, err := OpenFileLog(t.TempDir()+"/g.wal", FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()

	const appenders = 6
	const perAppender = 150

	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var maxCompacted uint64

	stop := make(chan struct{})
	var aux sync.WaitGroup

	// Durable-LSN monotonicity monitor.
	var regressed atomic.Bool
	aux.Add(1)
	go func() {
		defer aux.Done()
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := g.DurableLSN(); d < prev {
				regressed.Store(true)
				return
			} else {
				prev = d
			}
		}
	}()

	// Compactor: checkpoint-style compaction behind the durable LSN,
	// always leaving a small suffix.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(300 * time.Microsecond):
			}
			if bound := g.DurableLSN(); bound > 10 {
				if err := g.Compact(bound - 10); err != nil {
					t.Errorf("compact(%d): %v", bound-10, err)
					return
				}
				mu.Lock()
				if bound-10 > maxCompacted {
					maxCompacted = bound - 10
				}
				mu.Unlock()
			}
		}
	}()

	// Scanner: every observed image must be strictly LSN-ascending.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var prev uint64
			if err := g.Scan(1, func(r Record) error {
				if r.LSN <= prev {
					t.Errorf("scan saw LSN %d after %d", r.LSN, prev)
				}
				prev = r.LSN
				return nil
			}); err != nil {
				t.Errorf("concurrent scan: %v", err)
				return
			}
		}
	}()

	var apps sync.WaitGroup
	for w := 0; w < appenders; w++ {
		apps.Add(1)
		go func(w int) {
			defer apps.Done()
			for i := 0; i < perAppender; i++ {
				lsn, err := g.Append(RecCommit, []byte{byte(w), byte(i)})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				acked[lsn] = true
				mu.Unlock()
			}
		}(w)
	}
	apps.Wait()
	close(stop)
	aux.Wait()

	if regressed.Load() {
		t.Fatal("durable LSN regressed during compaction")
	}
	// Every acked record above the final compaction bound survives.
	survivors := make(map[uint64]bool)
	if err := g.Scan(1, func(r Record) error {
		survivors[r.LSN] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	lost := 0
	for lsn := range acked {
		if lsn > maxCompacted && !survivors[lsn] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d acknowledged records above compaction bound %d missing after concurrent compaction",
			lost, maxCompacted)
	}
	if d, last := g.DurableLSN(), g.LastLSN(); d != last {
		t.Errorf("durable LSN %d != last LSN %d after join", d, last)
	}
}

// TestDirectorySyncedOnCreateAndCompact checks that a synced FileLog fsyncs its
// directory whenever an entry there changes: once when the first open
// creates the file, once per Compact (whose rename replaces it), and
// never on reopening an existing log or without Sync. Power loss itself
// cannot be tested; the calls can.
func TestDirectorySyncedOnCreateAndCompact(t *testing.T) {
	var synced []string
	prev := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return prev(dir)
	}
	t.Cleanup(func() { syncDir = prev })
	dir := t.TempDir()
	path := filepath.Join(dir, "site.wal")
	want := func(n int, after string) {
		t.Helper()
		if len(synced) != n || slices.ContainsFunc(synced, func(d string) bool { return d != dir }) {
			t.Fatalf("after %s: directory syncs %v, want %d of %s", after, synced, n, dir)
		}
	}

	l, err := OpenFileLog(path, FileLogOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	want(1, "the creating open")
	for i := 0; i < 4; i++ {
		if _, err := l.Append(RecCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want(1, "appends")
	for i, upto := range []uint64{2, 4} {
		if err := l.Compact(upto); err != nil {
			t.Fatal(err)
		}
		want(2+i, "a compaction")
	}
	l.Close()
	if l, err = OpenFileLog(path, FileLogOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	want(3, "reopening the existing log")

	u, err := OpenFileLog(filepath.Join(dir, "unsynced.wal"), FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	u.Append(RecCommit, []byte{1})
	if err := u.Compact(1); err != nil {
		t.Fatal(err)
	}
	want(3, "an unsynced log's open and compaction")

	// A failed directory sync is reported. A compaction's rename has
	// already happened by then, so the log goes on with the new file.
	syncDir = func(string) error { return os.ErrPermission }
	if _, err := OpenFileLog(filepath.Join(dir, "new.wal"), FileLogOptions{Sync: true}); err == nil {
		t.Error("creating open succeeded without its directory sync")
	}
	if l, err = OpenFileLog(path, FileLogOptions{Sync: true}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Compact(4); err == nil {
		t.Error("compaction succeeded without its directory sync")
	}
	if lsn, err := l.Append(RecCommit, []byte{9}); err != nil || lsn != 5 {
		t.Fatalf("append after a failed directory sync: lsn=%d err=%v, want 5", lsn, err)
	}
	var lsns []uint64
	l.Scan(1, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
	if !slices.Equal(lsns, []uint64{5}) {
		t.Errorf("log after a failed directory sync holds LSNs %v, want [5]", lsns)
	}
}

// A compaction that keeps nothing writes a header alone, whose base is
// the next LSN; compacting again below it keeps that base.
func TestFileLogCompactEverythingIsAHeader(t *testing.T) {
	path := t.TempDir() + "/c.wal"
	l, _ := OpenFileLog(path, FileLogOptions{})
	for i := 0; i < 4; i++ {
		l.Append(RecCommit, []byte{byte(i)})
	}
	for _, upto := range []uint64{4, 2} {
		if err := l.Compact(upto); err != nil {
			t.Fatal(err)
		}
		img, _ := os.ReadFile(path)
		if base, ok := parseHeader(img); len(img) != headerSize || !ok || base != 5 {
			t.Fatalf("after Compact(%d): %d bytes, header base %d (valid %v); want a header alone, base 5", upto, len(img), base, ok)
		}
	}
	l.Close()
	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if lsn, err := l2.Append(RecCommit, nil); err != nil || lsn != 5 {
		t.Errorf("append after reopen: lsn=%d err=%v, want 5", lsn, err)
	}
}
