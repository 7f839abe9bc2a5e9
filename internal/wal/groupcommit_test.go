package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/obs"
)

func TestGroupLogAppendDurableAndOrdered(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	for i := 1; i <= 5; i++ {
		lsn, err := g.Append(RecCommit, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
		// The Log contract: record is stable when Append returns.
		if inner.LastLSN() < lsn {
			t.Fatalf("append %d returned before inner durable (inner at %d)", i, inner.LastLSN())
		}
	}
	if g.DurableLSN() != 5 || g.LastLSN() != 5 {
		t.Fatalf("durable=%d last=%d, want 5", g.DurableLSN(), g.LastLSN())
	}
}

func TestGroupLogBatchesConcurrentAppends(t *testing.T) {
	// Gate the first flush so concurrent appenders pile up, then count
	// flushes: k appends must arrive in far fewer than k flushes.
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()

	release := make(chan struct{})
	var flushes atomic.Int64
	var gateOnce sync.Once
	g.SetFlushHook(func(batch int) {
		flushes.Add(1)
		gateOnce.Do(func() { <-release })
	})

	const k = 32
	lsns := make([]uint64, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := g.Append(RecCommit, []byte{byte(i)})
			if err != nil {
				t.Error(err)
				return
			}
			lsns[i] = lsn
		}(i)
	}
	// Wait for the first flush to be gated and the rest to queue up.
	deadline := time.Now().Add(2 * time.Second)
	for g.Waiters() < k-1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if n := flushes.Load(); n >= k/2 {
		t.Errorf("%d appends took %d flushes — no batching happened", k, n)
	}
	seen := make(map[uint64]bool)
	for i, lsn := range lsns {
		if lsn == 0 || seen[lsn] {
			t.Fatalf("appender %d got bad/duplicate LSN %d", i, lsn)
		}
		seen[lsn] = true
	}
	if g.Waiters() != 0 {
		t.Errorf("waiters = %d after drain", g.Waiters())
	}
}

func TestGroupLogMaxBatch(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{MaxBatch: 4})
	defer g.Close()

	release := make(chan struct{})
	var gateOnce sync.Once
	var maxSeen atomic.Int64
	g.SetFlushHook(func(batch int) {
		if int64(batch) > maxSeen.Load() {
			maxSeen.Store(int64(batch))
		}
		gateOnce.Do(func() { <-release })
	})

	const k = 19
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Append(RecCommit, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for g.Waiters() < k-1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	if maxSeen.Load() > 4 {
		t.Errorf("flush carried %d records, MaxBatch is 4", maxSeen.Load())
	}
	if g.LastLSN() != k {
		t.Errorf("LastLSN = %d, want %d", g.LastLSN(), k)
	}
}

// A flush error fails the log for good: the LSNs behind the failed
// group were handed out already and can no longer become stable in
// order. Recovery is a new GroupLog over the inner log.
func TestGroupLogErrorFailsWholeGroup(t *testing.T) {
	inner := NewMemLog()
	boom := errors.New("disk full")
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()

	inner.SetAppendHook(func(Record) error { return boom })
	if _, err := g.Append(RecCommit, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	inner.SetAppendHook(nil)
	if _, err := g.Append(RecCommit, nil); !errors.Is(err, boom) {
		t.Fatalf("append after the disk came back: err = %v, want the log to stay failed with %v", err, boom)
	}
	if n := g.Waiters(); n != 0 {
		t.Fatalf("failed log still counts %d queued records", n)
	}

	g2 := NewGroupLog(inner, GroupCommitOptions{})
	defer g2.Close()
	if lsn, err := g2.Append(RecCommit, nil); err != nil || lsn != 1 {
		t.Fatalf("new GroupLog over the inner log: lsn=%d err=%v", lsn, err)
	}
}

// Every queued record and every later append fails once a flush has:
// none of them may be reported stable behind a hole.
func TestGroupLogErrorFailsQueuedAndLater(t *testing.T) {
	inner := NewMemLog()
	boom := errors.New("disk full")
	g := NewGroupLog(inner, GroupCommitOptions{MaxBatch: 1})
	defer g.Close()

	// Hold the first flush — the one a waiter on the first record asks
	// for — so the rest queue up behind it.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	g.SetFlushHook(func(int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	var lsns []uint64
	firstWait := make(chan error, 1)
	for i := 0; i < 4; i++ {
		lsn, err := g.Enqueue(RecCommit, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if i == 0 {
			go func() { firstWait <- g.WaitDurable(lsn) }()
			<-entered
		}
	}
	inner.SetAppendHook(func(Record) error { return boom })
	close(release)
	if err := <-firstWait; !errors.Is(err, boom) {
		t.Errorf("the demanding WaitDurable(%d) = %v, want %v", lsns[0], err, boom)
	}
	for _, lsn := range lsns {
		if err := g.WaitDurable(lsn); !errors.Is(err, boom) {
			t.Errorf("WaitDurable(%d) = %v, want %v", lsn, err, boom)
		}
	}
	inner.SetAppendHook(nil)
	if _, err := g.Enqueue(RecCommit, nil); !errors.Is(err, boom) {
		t.Errorf("later Enqueue = %v, want %v", err, boom)
	}
	if _, err := g.Append(RecCommit, nil); !errors.Is(err, boom) {
		t.Errorf("later Append = %v, want %v", err, boom)
	}
	if inner.LastLSN() != 0 {
		t.Errorf("inner log holds %d records; none was to be written", inner.LastLSN())
	}
}

// LSNs are reserved under the queue lock: what 8 concurrent enqueuers
// get back is dense, final (the record is found at exactly that LSN)
// and in queue order (one enqueuer's LSNs only grow).
func TestGroupLogEnqueueDenseFinalInQueueOrder(t *testing.T) {
	const enqueuers, each = 8, 50
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{MaxBatch: 7})
	defer g.Close()

	got := make([][]uint64, enqueuers)
	var wg sync.WaitGroup
	for w := 0; w < enqueuers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := g.Enqueue(RecCommit, []byte{byte(w), byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], lsn)
			}
			if err := g.WaitDurable(got[w][each-1]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	owner := make(map[uint64][2]byte)
	for w, lsns := range got {
		for i, lsn := range lsns {
			if i > 0 && lsn <= lsns[i-1] {
				t.Fatalf("enqueuer %d: LSN %d after %d", w, lsn, lsns[i-1])
			}
			if _, dup := owner[lsn]; dup {
				t.Fatalf("LSN %d handed out twice", lsn)
			}
			owner[lsn] = [2]byte{byte(w), byte(i)}
		}
	}
	next := uint64(1)
	err := inner.Scan(1, func(r Record) error {
		if r.LSN != next {
			return fmt.Errorf("inner log has LSN %d where %d was due", r.LSN, next)
		}
		if o := owner[r.LSN]; len(r.Data) != 2 || r.Data[0] != o[0] || r.Data[1] != o[1] {
			return fmt.Errorf("LSN %d holds %v, but Enqueue promised it to %v", r.LSN, r.Data, o)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next-1 != enqueuers*each {
		t.Fatalf("inner log holds %d records, want %d", next-1, enqueuers*each)
	}
}

// Durability is a prefix: once WaitDurable(l) returns nil, every LSN
// up to l is in the inner log, whoever enqueued it.
func TestGroupLogWaitDurableCoversPrefix(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{MaxBatch: 3})
	defer g.Close()
	var lsns []uint64
	for i := 0; i < 20; i++ {
		lsn, err := g.Enqueue(RecCommit, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for _, l := range []uint64{lsns[4], lsns[11], lsns[19]} {
		if err := g.WaitDurable(l); err != nil {
			t.Fatal(err)
		}
		seen := uint64(0)
		inner.Scan(1, func(r Record) error {
			if r.LSN == seen+1 {
				seen++
			}
			return nil
		})
		if seen < l {
			t.Fatalf("WaitDurable(%d) returned with the inner log dense only up to %d", l, seen)
		}
	}
	if g.DurableLSN() != lsns[19] || g.Waiters() != 0 {
		t.Fatalf("durable=%d waiters=%d after the last wait, want %d and 0", g.DurableLSN(), g.Waiters(), lsns[19])
	}
}

// A force is asked for, not set off by a queued record: two records
// enqueued and never waited for stay queued, and a wait on the first
// forces both with one flush. Waiting on the second then asks for
// nothing more.
func TestGroupLogForcesOnDemand(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	var mu sync.Mutex
	var batches []int
	g.SetFlushHook(func(n int) {
		mu.Lock()
		batches = append(batches, n)
		mu.Unlock()
	})
	flushed := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), batches...)
	}

	a, err := g.Enqueue(RecVmAccept, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Enqueue(RecCommit, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if f := flushed(); len(f) != 0 || inner.LastLSN() != 0 || g.Waiters() != 2 {
		t.Fatalf("before any wait: flushes %v, inner at %d, %d queued; want none, 0 and 2", f, inner.LastLSN(), g.Waiters())
	}
	if err := g.WaitDurable(a); err != nil {
		t.Fatal(err)
	}
	if f := flushed(); len(f) != 1 || f[0] != 2 {
		t.Fatalf("a wait on the first of two queued records flushed %v, want one flush of 2", f)
	}
	if d := g.DurableLSN(); d != b {
		t.Fatalf("durable = %d after the demanded force, want %d: the later record rides it", d, b)
	}
	if err := g.WaitDurable(b); err != nil {
		t.Fatal(err)
	}
	if f := flushed(); len(f) != 1 {
		t.Fatalf("waiting on a record already durable flushed again: %v", f)
	}
}

// A record nobody ever waits for is forced by Close.
func TestGroupLogCloseForcesUnwaited(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	lsn, err := g.Enqueue(RecVmAccept, []byte("never waited for"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if last := inner.LastLSN(); last != lsn {
		t.Fatalf("inner log at %d after Close, want the unwaited record %d", last, lsn)
	}
}

func TestGroupLogCloseDrainsThenRejects(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	g.Append(RecCommit, nil)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Append(RecCommit, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	// Close is idempotent.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupLogScanCompactDelegate(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	for i := 0; i < 4; i++ {
		g.Append(RecCommit, []byte{byte(i)})
	}
	if err := g.Compact(2); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	g.Scan(1, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
	if len(lsns) != 2 || lsns[0] != 3 {
		t.Errorf("after compact: %v", lsns)
	}
}

func TestGroupLogInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGroupLog(NewMemLog(), GroupCommitOptions{})
	defer g.Close()
	g.Instrument(reg, "site", "1")
	g.Append(RecCommit, nil)
	if n := reg.CounterValue("dvp_wal_group_flushes_total", "site", "1"); n == 0 {
		t.Error("flush counter did not move")
	}
	if n := reg.CounterValue("dvp_wal_group_records_total", "site", "1"); n != 1 {
		t.Errorf("records counter = %d", n)
	}
	if h := reg.Histogram("dvp_wal_flush_seconds", "site", "1"); h.Count() == 0 {
		t.Error("flush latency histogram empty")
	}
	if h := reg.Histogram("dvp_wal_group_batch", "site", "1"); h.Count() == 0 {
		t.Error("batch size histogram empty")
	}
}

func TestGroupLogOverFileLogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	fl, err := OpenFileLog(path, FileLogOptions{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupLog(fl, GroupCommitOptions{})
	const k = 16
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.Append(RecCommit, []byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var n int
	var last uint64
	re.Scan(1, func(r Record) error {
		n++
		if r.LSN != last+1 {
			t.Errorf("LSN gap: %d after %d", r.LSN, last)
		}
		last = r.LSN
		return nil
	})
	if n != k {
		t.Errorf("reopened log has %d records, want %d", n, k)
	}
}

func TestFileLogAppendBatchFrames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	fl, err := OpenFileLog(path, FileLogOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := fl.AppendBatch([]BatchEntry{
		{Kind: RecCommit, Data: []byte("a")},
		{Kind: RecVmCreate, Data: []byte("bb")},
		{Kind: RecApplied, Data: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || fl.LastLSN() != 3 {
		t.Fatalf("first=%d last=%d", first, fl.LastLSN())
	}
	if _, err := fl.AppendBatch(nil); err == nil {
		t.Error("empty batch must error")
	}
	fl.Close()
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var kinds []RecordKind
	re.Scan(1, func(r Record) error { kinds = append(kinds, r.Kind); return nil })
	want := []RecordKind{RecCommit, RecVmCreate, RecApplied}
	if len(kinds) != len(want) {
		t.Fatalf("got %d records", len(kinds))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("record %d kind %v, want %v", i, kinds[i], want[i])
		}
	}
	// A torn tail mid-batch is truncated at reopen like any tail.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-3], 0o644)
	re2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.LastLSN() != 2 {
		t.Errorf("after torn tail LastLSN = %d, want 2", re2.LastLSN())
	}
}

func TestSlowLogBatchPaysOneDelayPerFlush(t *testing.T) {
	l := NewSlowDevice(NewMemLog(), 10*time.Millisecond)
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Kind: RecCommit}
	}
	start := time.Now()
	first, err := l.AppendBatch(entries)
	if err != nil || first != 1 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	elapsed := time.Since(start)
	if elapsed < 9*time.Millisecond {
		t.Errorf("batch paid %v, want ≥ one 10ms force", elapsed)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("batch paid %v — looks like per-record delay, want one per flush", elapsed)
	}
}
