package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/obs"
)

// The inline tests count forces by the goroutine that ran them
// (dvp_wal_group_flushes_total{by=...}); none asserts a duration.

// forcedBy reads an instrumented log's force counts per runner.
func forcedBy(reg *obs.Registry) (flusher, committer uint64) {
	return reg.CounterValue("dvp_wal_group_flushes_total", "site", "1", "by", "flusher"),
		reg.CounterValue("dvp_wal_group_flushes_total", "site", "1", "by", "committer")
}

func instrumented(inner Device) (*GroupLog, *obs.Registry) {
	reg := obs.NewRegistry()
	g := NewGroupLog(inner, GroupCommitOptions{})
	g.Instrument(reg, "site", "1")
	return g, reg
}

// primeInline makes the log believe a hand-off costs an hour, so every
// force a waiter may run (none in flight, no hold), it runs itself.
func primeInline(g *GroupLog) {
	g.mu.Lock()
	g.handoffEWMA = time.Hour
	g.mu.Unlock()
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

// A lone committer's first force goes to the flusher, which measures
// the hand-off; once the log holds a hand-off dearer than its force,
// the committer runs every later force itself. (How a hand-off
// compares with a memory log's force is the host's affair: under the
// race detector on one CPU the two are within a microsecond, so the
// test sets the hand-off rather than measure it.)
func TestGroupLogInlineLoneCommitter(t *testing.T) {
	g, reg := instrumented(NewMemLog())
	defer g.Close()
	if _, err := g.Append(RecCommit, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if f, c := forcedBy(reg); f != 1 || c != 0 {
		t.Fatalf("first force: %d by the flusher, %d by the committer; want 1 and 0", f, c)
	}
	primeInline(g)
	const n = 50
	for i := 1; i < n; i++ {
		if _, err := g.Append(RecCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if f, c := forcedBy(reg); f != 1 || c != n-1 {
		t.Errorf("%d forces of a lone committer: %d by the flusher, %d by the committer; want 1 and %d", n, f, c, n-1)
	}
}

// A force slower than a wake-up stays on the flusher: on a slow device
// no committer ever runs one.
func TestGroupLogInlineNeverOnASlowDevice(t *testing.T) {
	g, reg := instrumented(NewSlowDevice(NewMemLog(), 10*time.Millisecond))
	defer g.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := g.Append(RecCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if f, c := forcedBy(reg); f != n || c != 0 {
		t.Errorf("%d forces on a slow device: %d by the flusher, %d by a committer; want %d and 0", n, f, c, n)
	}
}

// serialDevice fails the test if two AppendBatch calls overlap. It
// yields inside each one, so that other committers find a force in
// flight and hand theirs to the flusher.
type serialDevice struct {
	Device
	t    *testing.T
	busy atomic.Int32
}

func (d *serialDevice) AppendBatch(entries []BatchEntry) (uint64, error) {
	if d.busy.Add(1) != 1 {
		d.t.Error("two forces overlap on the device")
	}
	defer d.busy.Add(-1)
	runtime.Gosched()
	return d.Device.AppendBatch(entries)
}

// Committers racing their own forces against the flusher's still force
// one at a time, in LSN order: the device sees no overlap, and the log
// holds every record, densely, at the LSN its Enqueue was given.
func TestGroupLogInlineForcesStaySerial(t *testing.T) {
	inner := NewMemLog()
	g, reg := instrumented(&serialDevice{Device: inner, t: t})
	defer g.Close()
	primeInline(g)
	const committers, each = 8, 100
	var wg sync.WaitGroup
	owner := make([][]uint64, committers)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := g.Append(RecCommit, []byte{byte(w), byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				owner[w] = append(owner[w], lsn)
			}
		}(w)
	}
	wg.Wait()
	want := make(map[uint64][2]byte)
	for w, lsns := range owner {
		for i, lsn := range lsns {
			want[lsn] = [2]byte{byte(w), byte(i)}
		}
	}
	next := uint64(1)
	err := inner.Scan(1, func(r Record) error {
		if r.LSN != next {
			return fmt.Errorf("LSN %d where %d was due", r.LSN, next)
		}
		if o, ok := want[r.LSN]; !ok || len(r.Data) != 2 || r.Data[0] != o[0] || r.Data[1] != o[1] {
			return fmt.Errorf("LSN %d holds %v, but Enqueue promised it to %v", r.LSN, r.Data, o)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next-1 != committers*each {
		t.Fatalf("log holds %d records, want %d", next-1, committers*each)
	}
	if f, c := forcedBy(reg); f == 0 || c == 0 {
		t.Errorf("forces: %d by the flusher, %d by committers; want both to have run some", f, c)
	}
}

// Reset waits out a force a committer runs, as it does the flusher's,
// and drops only what queued behind it.
func TestGroupLogInlineResetWaitsForTheForce(t *testing.T) {
	inner := NewMemLog()
	g, reg := instrumented(inner)
	defer g.Close()
	primeInline(g)
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
		t.Fatal("Reset returned with a committer's force in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if n := <-reset; n != 1 {
		t.Errorf("Reset dropped %d records, want the 1 queued behind the force", n)
	}
	if err := <-waited; err != nil {
		t.Errorf("the committer that forced: %v", err)
	}
	if l := inner.LastLSN(); l != first {
		t.Errorf("device holds %d records, want the %d of the landed force", l, first)
	}
	if f, c := forcedBy(reg); f != 0 || c != 1 {
		t.Errorf("forces: %d by the flusher, %d by a committer; want 0 and 1", f, c)
	}
}

// Close during a committer's force waits for it, then drains the queue
// behind it on the flusher.
func TestGroupLogInlineCloseDrains(t *testing.T) {
	inner := NewMemLog()
	g, reg := instrumented(inner)
	primeInline(g)
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
		t.Fatal("Close returned with a committer's force in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Errorf("the committer that forced: %v", err)
	}
	if l := inner.LastLSN(); l != last {
		t.Errorf("device holds %d records after Close, want all %d", l, last)
	}
	if f, c := forcedBy(reg); f != 1 || c != 1 {
		t.Errorf("forces: %d by the flusher, %d by a committer; want 1 (the drain) and 1", f, c)
	}
}

// A committer's failed force fails the log as the flusher's does: its
// own record, every queued one and every later one.
func TestGroupLogInlineErrorFailsQueuedAndLater(t *testing.T) {
	inner := NewMemLog()
	boom := errors.New("disk full")
	g, reg := instrumented(inner)
	defer g.Close()
	primeInline(g)
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
		t.Errorf("the forcing WaitDurable(%d) = %v, want %v", lsns[0], err, boom)
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
	if f, c := forcedBy(reg); f != 0 || c != 1 {
		t.Errorf("forces: %d by the flusher, %d by a committer; want 0 and 1", f, c)
	}
}
