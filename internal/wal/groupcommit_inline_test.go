package wal

import (
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

// preferCommitter makes the log's policy measure a hand-off dearer than
// its force, so a waiter runs every force it may (none in flight, no
// hold) itself.
func preferCommitter(g *GroupLog) {
	g.mu.Lock()
	g.policy.handoffEWMA = time.Hour
	g.mu.Unlock()
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
	preferCommitter(g)
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
	preferCommitter(g)
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
