package wal

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dvp/internal/obs"
)

// The hold tests count flushes and hold outcomes on a group log over a
// slow device; none asserts a duration. Each committer's round trip is
// a goroutine's, microseconds against a force of milliseconds, except
// where a test sleeps to make it slower than the force. A test that
// must act inside a hold forces for tens of milliseconds, so a loaded
// scheduler does not let the hold time out first.

// holdRig is an instrumented group log over a slow device that records
// every flush's batch size.
type holdRig struct {
	g   *GroupLog
	reg *obs.Registry

	mu      sync.Mutex
	batches []int
}

func newHoldRig(t *testing.T, force time.Duration) *holdRig {
	r := &holdRig{reg: obs.NewRegistry()}
	r.g = NewGroupLog(NewSlowDevice(NewMemLog(), force), GroupCommitOptions{})
	r.g.Instrument(r.reg, "site", "1")
	r.g.SetFlushHook(func(n int) {
		r.mu.Lock()
		r.batches = append(r.batches, n)
		r.mu.Unlock()
	})
	t.Cleanup(func() { r.g.Close() })
	return r
}

func (r *holdRig) flushes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.batches...)
}

func (r *holdRig) holds() (joined, timeout uint64) {
	return r.reg.CounterValue("dvp_wal_group_holds_total", "site", "1", "outcome", "joined"),
		r.reg.CounterValue("dvp_wal_group_holds_total", "site", "1", "outcome", "timeout")
}

// pairRound queues two records, then waits on both from two goroutines:
// two committers that a force released together and that both came back.
func (r *holdRig) pairRound(t *testing.T) {
	t.Helper()
	a, err := r.g.Enqueue(RecCommit, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.g.Enqueue(RecCommit, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.g.WaitDurable(a) }()
	if err := r.g.WaitDurable(b); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// awaitHold returns once the flusher is holding a force.
func (r *holdRig) awaitHold(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.g.mu.Lock()
		holding := !r.g.holdStart.IsZero()
		r.g.mu.Unlock()
		if holding {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the flusher never held")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Two closed-loop committers share forces: the flusher holds each force
// for the committer the last one released instead of forcing the first
// arrival alone, so they stop alternating between forces of one record.
func TestGroupLogHoldPairSharesForces(t *testing.T) {
	r := newHoldRig(t, 2*time.Millisecond)
	const appends = 40
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if _, err := r.g.Append(RecCommit, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	f := r.flushes()
	paired := 0
	for _, n := range f[1:] {
		if n == 2 {
			paired++
		}
	}
	if paired*10 < 9*(len(f)-1) {
		t.Errorf("%d of the %d flushes after the first carry 2 records, want ≥ 90 %%: %v", paired, len(f)-1, f)
	}
}

// A lone committer is always the whole cohort it returns to, so its
// force never holds.
func TestGroupLogHoldNeverForALoneCommitter(t *testing.T) {
	r := newHoldRig(t, time.Millisecond)
	for i := 0; i < 20; i++ {
		if _, err := r.g.Append(RecCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if j, to := r.holds(); j+to != 0 {
		t.Errorf("a lone committer was held %d times (%d joined, %d timed out), want 0", j+to, j, to)
	}
}

// A committer that comes back slower than a force would hold every
// force for longer than it saves. Each round here is the convoy's
// shape — b queues while a's force runs, so b waits at a's release for
// a committer that comes back only after a sleep longer than a force —
// and no force holds.
func TestGroupLogHoldNotForSlowReturns(t *testing.T) {
	r := newHoldRig(t, 2*time.Millisecond)
	wait := func(lsn uint64) <-chan error {
		errc := make(chan error, 1)
		go func() { errc <- r.g.WaitDurable(lsn) }()
		return errc
	}
	for i := 0; i < 8; i++ {
		a, err := r.g.Enqueue(RecCommit, []byte("a"))
		if err != nil {
			t.Fatal(err)
		}
		aDone := wait(a)
		for {
			r.g.mu.Lock()
			flushing := r.g.inFlight > 0
			r.g.mu.Unlock()
			if flushing {
				break
			}
			runtime.Gosched()
		}
		b, err := r.g.Enqueue(RecCommit, []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		bDone := wait(b)
		if err := <-aDone; err != nil {
			t.Fatal(err)
		}
		if err := <-bDone; err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j, to := r.holds(); j+to != 0 {
		t.Errorf("returns slower than forces were held %d times (%d joined, %d timed out), want 0", j+to, j, to)
	}
}

// A released committer that never returns costs the record queued
// behind it one hold, which times out; the force it then makes releases
// a cohort of one, which never holds.
func TestGroupLogHoldTimesOutOnceForAStray(t *testing.T) {
	r := newHoldRig(t, 20*time.Millisecond)
	for i := 0; i < 4; i++ {
		r.pairRound(t)
	}
	j0, to0 := r.holds()
	for i := 0; i < 4; i++ {
		if _, err := r.g.Append(RecCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j, to := r.holds()
	if j != j0 || to != to0+1 {
		t.Errorf("a committer left alone was held %d (joined) + %d (timed out) times, want 0 + 1", j-j0, to-to0)
	}
}

// primedHold makes the flusher hold a stray record: two pair rounds
// release a cohort of two and measure the force and the return, then a
// committer comes back alone. It returns the stray's Append result.
func (r *holdRig) primedHold(t *testing.T) <-chan error {
	t.Helper()
	r.pairRound(t)
	r.pairRound(t)
	errc := make(chan error, 1)
	go func() {
		_, err := r.g.Append(RecCommit, []byte("stray"))
		errc <- err
	}()
	r.awaitHold(t)
	return errc
}

// Reset, as a crash calls it, cuts a hold short: the held record is
// dropped unforced, the cohort is forgotten, and the hold counts as
// neither joined nor timed out.
func TestGroupLogHoldCutByReset(t *testing.T) {
	r := newHoldRig(t, 50*time.Millisecond)
	errc := r.primedHold(t)
	j0, to0 := r.holds()
	flushed := len(r.flushes())
	if n := r.g.Reset(); n != 1 {
		t.Fatalf("Reset dropped %d records, want the held one", n)
	}
	r.g.mu.Lock()
	cohort, holding := r.g.cohort, !r.g.holdStart.IsZero()
	r.g.mu.Unlock()
	if cohort != 0 || holding {
		t.Errorf("after Reset: cohort %d, holding %v; want 0 and false", cohort, holding)
	}
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Errorf("the dropped record's wait returned %v, want ErrClosed", err)
	}
	if f := r.flushes(); len(f) != flushed {
		t.Errorf("flushes after Reset: %v, want none", f[flushed:])
	}
	if j, to := r.holds(); j != j0 || to != to0 {
		t.Errorf("the cut hold counted %d joined and %d timed out, want neither", j-j0, to-to0)
	}
}

// Close cuts a hold short and drains: the held record is forced at once
// and its wait returns nil, and the hold counts as neither outcome.
func TestGroupLogHoldCutByClose(t *testing.T) {
	r := newHoldRig(t, 50*time.Millisecond)
	errc := r.primedHold(t)
	j0, to0 := r.holds()
	flushed := len(r.flushes())
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Errorf("the held record's wait returned %v, want nil: Close drains", err)
	}
	if f := r.flushes(); len(f) != flushed+1 || f[flushed] != 1 {
		t.Errorf("flushes at Close: %v, want one of the held record", f[flushed:])
	}
	if j, to := r.holds(); j != j0 || to != to0 {
		t.Errorf("Close waited the hold out: %d joined, %d timed out, want neither", j-j0, to-to0)
	}
}
