// Package vclock abstracts time so that every timeout in the system —
// the paper's §5 "timeout counter", Vm retransmission intervals, and
// the baselines' lock-wait timeouts — can run against either the real
// wall clock or a virtual clock that tests advance by hand.
//
// The paper's non-blocking guarantee is a statement about local time
// bounds ("a decision in a bounded number of steps as measured
// locally"); the virtual clock lets tests assert that bound exactly,
// with no flakiness from scheduler jitter.
package vclock

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock is the minimal time surface the system needs.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the then-current time
	// once d has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// NewTimer is After with a Stop: a site's waits and loops use it,
	// so a virtual clock stops counting them once they are done. The
	// lock queue and the baselines, whose waits run to their timeout,
	// keep After.
	NewTimer(d time.Duration) Timer
	// Sleep blocks the calling goroutine for d on this clock.
	Sleep(d time.Duration)
}

// Timer is a one-shot timer. C receives the then-current time when it
// fires; Stop keeps it from firing, and reports whether it was pending.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

type realTimer struct{ *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.Timer.C }

// Virtual is a manually advanced clock. It never moves on its own:
// goroutines blocked in After/Sleep wake only when Advance (or
// AdvanceTo) moves the clock past their deadline. This gives tests
// deterministic control over every timeout in the system.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter // kept sorted by deadline
}

type waiter struct {
	v        *Virtual
	deadline time.Time
	ch       chan time.Time
}

// NewVirtual returns a virtual clock starting at the given time.
// A zero start is fine; tests usually care only about durations.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel has capacity 1 so the
// clock never blocks delivering a tick.
func (v *Virtual) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// NewTimer implements Clock. A stopped timer leaves PendingTimers.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	w := &waiter{v: v, deadline: v.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- v.now
		return w
	}
	v.waiters = append(v.waiters, w)
	sort.SliceStable(v.waiters, func(i, j int) bool {
		return v.waiters[i].deadline.Before(v.waiters[j].deadline)
	})
	return w
}

func (w *waiter) C() <-chan time.Time { return w.ch }

func (w *waiter) Stop() bool {
	w.v.mu.Lock()
	defer w.v.mu.Unlock()
	i := slices.Index(w.v.waiters, w)
	if i >= 0 {
		w.v.waiters = slices.Delete(w.v.waiters, i, i+1)
	}
	return i >= 0
}

// Sleep implements Clock: it blocks until the clock is advanced past
// the deadline by another goroutine.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the clock forward by d, firing every timer whose
// deadline is reached, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// AdvanceTo moves the clock to t (no-op if t is not after now),
// firing timers in deadline order.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !t.After(v.now) {
		return
	}
	v.now = t
	kept := v.waiters[:0]
	for _, w := range v.waiters {
		if !w.deadline.After(v.now) {
			w.ch <- v.now
		} else {
			kept = append(kept, w)
		}
	}
	v.waiters = kept
}

// PendingTimers reports how many goroutines are currently waiting on
// this clock. Useful for tests that advance "until quiescent".
func (v *Virtual) PendingTimers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// NextDeadline returns the earliest pending timer deadline and true,
// or a zero time and false if no timer is pending. Drivers use it to
// advance a simulation straight to the next interesting instant.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.waiters) == 0 {
		return time.Time{}, false
	}
	return v.waiters[0].deadline, true
}
