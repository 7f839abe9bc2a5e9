package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// The hold tests count flushes and hold outcomes; none asserts a
// duration. The rule itself is TestForcePolicy's: these check that the
// mechanism carries it out. A test that must act inside a hold primes
// the policy with one that cannot time out while the test runs.

func (r *flushRig) holds() (joined, timeout uint64) {
	return r.reg.CounterValue("dvp_wal_group_holds_total", "site", "1", "outcome", "joined"),
		r.reg.CounterValue("dvp_wal_group_holds_total", "site", "1", "outcome", "timeout")
}

// primeHold makes the log hold its next force for a cohort of two
// released now: a force costs an hour and a committer comes back in a
// nanosecond, so the hold outlasts the test unless the cohort joins.
func primeHold(g *GroupLog) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.policy.forceEWMA, g.policy.returnEWMA = time.Hour, time.Nanosecond
	g.policy.cohort, g.policy.returned = 2, 0
	g.policy.released, g.policy.mark = time.Now(), g.next
}

// heldAppend primes a hold and starts one committer's Append, and
// returns its result once the flusher holds the force for the other.
func (r *flushRig) heldAppend(t *testing.T) <-chan error {
	t.Helper()
	primeHold(r.g)
	errc := make(chan error, 1)
	go func() {
		_, err := r.g.Append(RecCommit, []byte("first"))
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.g.mu.Lock()
		holding := !r.g.holdStart.IsZero()
		r.g.mu.Unlock()
		if holding {
			return errc
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
	r := newFlushRig(t, NewSlowDevice(NewMemLog(), 2*time.Millisecond))
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

// The arrival that completes the cohort ends the hold, joined, and
// stops the hold timer: it does not fire later to wake the flusher for
// nothing.
func TestGroupLogHoldJoinedStopsTheTimer(t *testing.T) {
	r := newFlushRig(t, NewMemLog())
	first := r.heldAppend(t)
	if _, err := r.g.Append(RecCommit, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if j, to := r.holds(); j != 1 || to != 0 {
		t.Errorf("holds: %d joined, %d timed out; want 1 and 0", j, to)
	}
	if f := r.flushes(); len(f) != 1 || f[0] != 2 {
		t.Errorf("flushes %v, want one of both records", f)
	}
	r.g.mu.Lock()
	armed := r.g.holdTimer.Stop()
	r.g.mu.Unlock()
	if armed {
		t.Error("the hold timer was still armed after the hold joined")
	}
}

// Reset, as a crash calls it, cuts a hold short: the held record is
// dropped unforced, the cohort is forgotten, and the hold counts as
// neither joined nor timed out.
func TestGroupLogHoldCutByReset(t *testing.T) {
	r := newFlushRig(t, NewMemLog())
	errc := r.heldAppend(t)
	if n := r.g.Reset(); n != 1 {
		t.Fatalf("Reset dropped %d records, want the held one", n)
	}
	r.g.mu.Lock()
	cohort, holding := r.g.policy.cohort, !r.g.holdStart.IsZero()
	r.g.mu.Unlock()
	if cohort != 0 || holding {
		t.Errorf("after Reset: cohort %d, holding %v; want 0 and false", cohort, holding)
	}
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrReset) {
		t.Errorf("the dropped record's wait returned %v, want ErrReset", err)
	}
	if f := r.flushes(); len(f) != 0 {
		t.Errorf("flushes after Reset: %v, want none", f)
	}
	if j, to := r.holds(); j != 0 || to != 0 {
		t.Errorf("the cut hold counted %d joined and %d timed out, want neither", j, to)
	}
}

// A wait across a Reset on a record the Reset dropped fails with
// ErrReset: the dropped record's LSN goes to the next Append, and that
// record's force must not answer the old wait.
func TestGroupLogResetFailsItsWaiters(t *testing.T) {
	r := newFlushRig(t, NewMemLog())
	first := r.heldAppend(t)
	r.g.Reset()
	lsn, err := r.g.Append(RecCommit, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 {
		t.Fatalf("the Append after Reset got LSN %d, want the dropped record's 1", lsn)
	}
	if err := <-first; !errors.Is(err, ErrReset) {
		t.Errorf("the dropped record's wait returned %v, want ErrReset", err)
	}
}

// Close cuts a hold short and drains: the held record is forced at once
// and its wait returns nil, and the hold counts as neither outcome.
func TestGroupLogHoldCutByClose(t *testing.T) {
	r := newFlushRig(t, NewMemLog())
	errc := r.heldAppend(t)
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Errorf("the held record's wait returned %v, want nil: Close drains", err)
	}
	if f := r.flushes(); len(f) != 1 || f[0] != 1 {
		t.Errorf("flushes at Close: %v, want one of the held record", f)
	}
	if j, to := r.holds(); j != 0 || to != 0 {
		t.Errorf("Close waited the hold out: %d joined, %d timed out, want neither", j, to)
	}
}
