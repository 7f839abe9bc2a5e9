package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// One force carries at most maxBatch records: a wait on the last of
// more than two batches' worth of queued records writes them as full
// frames and a remainder, in LSN order.
func TestGroupLogMaxBatch(t *testing.T) {
	r := newFlushRig(t, NewMemLog())
	g := r.g
	const k = 2*maxBatch + 5
	var last uint64
	for i := 0; i < k; i++ {
		lsn, err := g.Enqueue(RecCommit, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := g.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if frames := r.flushes(); len(frames) != 3 || frames[0] != maxBatch || frames[1] != maxBatch || frames[2] != 5 {
		t.Errorf("%d queued records went out in frames of %v, want [%d %d 5]", k, r.flushes(), maxBatch, maxBatch)
	}
	if g.LastLSN() != k {
		t.Errorf("LastLSN = %d, want %d", g.LastLSN(), k)
	}
}

// A flush error fails the log for good: the LSNs behind the failed
// group were handed out already and can no longer become stable in
// order. A crash's Reset clears the failure with the queue.
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

	if n := g.Reset(); n != 0 {
		t.Errorf("Reset dropped %d records from a failed log's empty queue", n)
	}
	if lsn, err := g.Append(RecCommit, nil); err != nil || lsn != 1 {
		t.Fatalf("append after Reset: lsn=%d err=%v", lsn, err)
	}
}

// Reset is a crash of the log's volatile half: the records nobody
// asked to force are gone, the LSNs they held are handed out again,
// and the log goes on as a log over the device's records alone.
func TestGroupLogResetDropsTheQueue(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	if _, err := g.Append(RecCommit, []byte("a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := g.Enqueue(RecVmAccept, []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.Reset(); n != 3 {
		t.Fatalf("Reset dropped %d records, want the 3 unforced", n)
	}
	if n := g.Waiters(); n != 0 {
		t.Errorf("%d records queued after Reset", n)
	}
	if l, d := g.LastLSN(), g.DurableLSN(); l != 1 || d != 1 {
		t.Errorf("after Reset: LastLSN %d, DurableLSN %d, want 1 and 1", l, d)
	}
	lsn, err := g.Append(RecCommit, []byte("c"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after Reset: lsn=%d err=%v, want LSN 2", lsn, err)
	}
	var kinds []RecordKind
	g.Scan(1, func(r Record) error { kinds = append(kinds, r.Kind); return nil })
	if len(kinds) != 2 || kinds[0] != RecCommit || kinds[1] != RecCommit {
		t.Errorf("log holds %v, want the two commits", kinds)
	}
}

// flushRig is an instrumented group log that records every flush's
// batch size.
type flushRig struct {
	g   *GroupLog
	reg *obs.Registry

	mu      sync.Mutex
	batches []int
}

func newFlushRig(t *testing.T, dev Device) *flushRig {
	r := &flushRig{reg: obs.NewRegistry()}
	r.g = NewGroupLog(dev, GroupCommitOptions{})
	r.g.Instrument(r.reg, "site", "1")
	r.g.SetFlushHook(func(n int) {
		r.mu.Lock()
		r.batches = append(r.batches, n)
		r.mu.Unlock()
	})
	t.Cleanup(func() { r.g.Close() })
	return r
}

func (r *flushRig) flushes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.batches...)
}

// runner says who runs a waiter's force: the flusher, or the waiter
// itself once the policy prefers it. A test that holds a force in
// flight runs once with each.
type runner struct {
	name      string
	committer bool
}

var runners = []runner{{"flusher", false}, {"committer", true}}

// log returns an instrumented group log over inner whose waiters' forces
// the runner runs.
func (r runner) log(inner Device) (*GroupLog, *obs.Registry) {
	g, reg := instrumented(inner)
	if r.committer {
		preferCommitter(g)
	}
	return g, reg
}

// checkForces checks that n forces ran on the runner and drains more on
// the flusher.
func (r runner) checkForces(t *testing.T, reg *obs.Registry, n, drains uint64) {
	t.Helper()
	wantF, wantC := n+drains, uint64(0)
	if r.committer {
		wantF, wantC = drains, n
	}
	if f, c := forcedBy(reg); f != wantF || c != wantC {
		t.Errorf("forces: %d by the flusher, %d by a committer; want %d and %d", f, c, wantF, wantC)
	}
}

// gateFirstForce parks the first force in the flush hook until release
// is closed; entered is closed when a force gets there.
func gateFirstForce(g *GroupLog) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	g.SetFlushHook(func(int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	return entered, release
}

// The force in flight when Reset comes lands, as a write already
// issued to the disk would, whoever runs it: Reset waits it out, and
// drops only what queued behind it.
func TestGroupLogResetLandsTheFlushInFlight(t *testing.T) {
	for _, run := range runners {
		t.Run(run.name, func(t *testing.T) {
			inner := NewMemLog()
			g, reg := run.log(inner)
			defer g.Close()
			entered, release := gateFirstForce(g)
			first, _ := g.Enqueue(RecCommit, []byte("a"))
			waited := make(chan error, 1)
			go func() { waited <- g.WaitDurable(first) }()
			<-entered
			g.Enqueue(RecVmAccept, []byte("b"))
			reset := make(chan int, 1)
			go func() { reset <- g.Reset() }()
			select {
			case <-reset:
				t.Fatal("Reset returned with a force in flight")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if n := <-reset; n != 1 {
				t.Errorf("Reset dropped %d records, want the 1 queued behind the force", n)
			}
			if err := <-waited; err != nil {
				t.Errorf("waiter on the landed force: %v", err)
			}
			if l := inner.LastLSN(); l != first {
				t.Errorf("device holds %d records, want the %d of the landed force", l, first)
			}
			run.checkForces(t, reg, 1, 0)
		})
	}
}

// Every queued record and every later append fails once a force has,
// whoever ran it: none of them may be reported stable behind a hole.
func TestGroupLogErrorFailsQueuedAndLater(t *testing.T) {
	for _, run := range runners {
		t.Run(run.name, func(t *testing.T) {
			inner := NewMemLog()
			boom := errors.New("disk full")
			g, reg := run.log(inner)
			defer g.Close()
			// Hold the first force — the one a waiter on the first
			// record asks for — so the rest queue up behind it.
			entered, release := gateFirstForce(g)
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
			run.checkForces(t, reg, 1, 0)
		})
	}
}

// LSNs are reserved under the queue lock: what 8 concurrent enqueuers
// get back is dense, final (the record is found at exactly that LSN)
// and in queue order (one enqueuer's LSNs only grow).
func TestGroupLogEnqueueDenseFinalInQueueOrder(t *testing.T) {
	const enqueuers, each = 8, 50
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
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
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	var lsns []uint64
	for i := 0; i < 3*maxBatch; i++ {
		lsn, err := g.Enqueue(RecCommit, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for _, l := range []uint64{lsns[4], lsns[maxBatch+11], lsns[3*maxBatch-1]} {
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
	if g.DurableLSN() != lsns[3*maxBatch-1] || g.Waiters() != 0 {
		t.Fatalf("durable=%d waiters=%d after the last wait, want %d and 0", g.DurableLSN(), g.Waiters(), lsns[3*maxBatch-1])
	}
}

// A force is asked for, not set off by a queued record: two records
// enqueued and never waited for stay queued, and a wait on the first
// forces both with one flush. Waiting on the second then asks for
// nothing more.
func TestGroupLogForcesOnDemand(t *testing.T) {
	inner := NewMemLog()
	r := newFlushRig(t, inner)
	g, flushed := r.g, r.flushes
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

// Close during a force waits for it, whoever runs it, then drains the
// queue behind it on the flusher; later appends are refused, and Close
// is idempotent.
func TestGroupLogCloseDrainsThenRejects(t *testing.T) {
	for _, run := range runners {
		t.Run(run.name, func(t *testing.T) {
			inner := NewMemLog()
			g, reg := run.log(inner)
			entered, release := gateFirstForce(g)
			first, _ := g.Enqueue(RecCommit, []byte("a"))
			waited := make(chan error, 1)
			go func() { waited <- g.WaitDurable(first) }()
			<-entered
			g.Enqueue(RecVmAccept, []byte("b"))
			last, _ := g.Enqueue(RecVmAccept, []byte("c"))
			closed := make(chan error, 1)
			go func() { closed <- g.Close() }()
			select {
			case <-closed:
				t.Fatal("Close returned with a force in flight")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if err := <-waited; err != nil {
				t.Errorf("waiter on the landed force: %v", err)
			}
			if l := inner.LastLSN(); l != last {
				t.Errorf("device holds %d records after Close, want all %d", l, last)
			}
			run.checkForces(t, reg, 1, 1)
			if _, err := g.Append(RecCommit, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		})
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
	// The first force goes to the flusher: no hand-off is measured yet.
	if n := reg.CounterValue("dvp_wal_group_flushes_total", "site", "1", "by", "flusher"); n != 1 {
		t.Errorf("flusher's flush counter = %d, want 1", n)
	}
	preferCommitter(g)
	g.Append(RecCommit, nil)
	if n := reg.CounterValue("dvp_wal_group_flushes_total", "site", "1", "by", "committer"); n != 1 {
		t.Errorf("committer's flush counter = %d, want 1", n)
	}
	if n := reg.SumCounters("dvp_wal_group_flushes_total", "site", "1"); n != 2 {
		t.Errorf("flushes summed over who ran them = %d, want 2", n)
	}
	if n := reg.CounterValue("dvp_wal_group_records_total", "site", "1"); n != 2 {
		t.Errorf("records counter = %d", n)
	}
	if h := reg.Histogram("dvp_wal_flush_seconds", "site", "1"); h.Count() == 0 {
		t.Error("flush latency histogram empty")
	}
	if h := reg.Histogram("dvp_wal_group_batch", "site", "1"); h.Count() == 0 {
		t.Error("batch size histogram empty")
	}
	text := reg.Render()
	for _, series := range []string{
		`dvp_wal_group_flushes_total{by="committer",site="1"} 1`,
		`dvp_wal_group_flushes_total{by="flusher",site="1"} 1`,
		`dvp_wal_group_holds_total{outcome="joined",site="1"} 0`,
		`dvp_wal_group_holds_total{outcome="timeout",site="1"} 0`,
		`dvp_wal_group_hold_seconds_count{site="1"} 0`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition lacks %s:\n%s", series, text)
		}
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
	// The batch is one frame: torn mid-batch, it is dropped whole.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-3], 0o644)
	re2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.LastLSN() != 0 {
		t.Errorf("after torn tail LastLSN = %d, want 0", re2.LastLSN())
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
