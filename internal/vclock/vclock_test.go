package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockMonotone(t *testing.T) {
	var c Real
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Errorf("real clock did not advance: %v then %v", a, b)
	}
}

func TestRealAfterFires(t *testing.T) {
	var c Real
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("Real.After never fired")
	}
}

func TestVirtualNowStartsAtStart(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Errorf("Now() = %v, want %v", v.Now(), start)
	}
}

func TestVirtualAfterDoesNotFireEarly(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	ch := v.After(10 * time.Millisecond)
	v.Advance(9 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired before its deadline")
	default:
	}
	v.Advance(1 * time.Millisecond)
	select {
	case got := <-ch:
		want := time.Unix(0, 0).Add(10 * time.Millisecond)
		if !got.Equal(want) {
			t.Errorf("timer delivered %v, want %v", got, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualAfterZeroFiresImmediately(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	select {
	case <-v.After(0):
	default:
		t.Fatal("After(0) should fire immediately")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		v.Sleep(50 * time.Millisecond)
		close(done)
	}()
	// Wait for the sleeper to register.
	for v.PendingTimers() == 0 {
		time.Sleep(time.Microsecond)
	}
	v.Advance(50 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep never woke after Advance")
	}
}

func TestVirtualSleepNonPositiveReturns(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	v.Sleep(0)
	v.Sleep(-time.Second) // must not block
}

func TestVirtualAdvanceToBackwardsIsNoop(t *testing.T) {
	start := time.Unix(100, 0)
	v := NewVirtual(start)
	v.AdvanceTo(start.Add(-time.Second))
	if !v.Now().Equal(start) {
		t.Errorf("AdvanceTo backwards moved the clock to %v", v.Now())
	}
}

func TestVirtualFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			<-v.After(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i, d)
	}
	for v.PendingTimers() < 3 {
		time.Sleep(time.Microsecond)
	}
	// Advance step by step so wake order is observable.
	for i := 0; i < 3; i++ {
		v.Advance(10 * time.Millisecond)
		time.Sleep(5 * time.Millisecond) // let woken goroutine record
	}
	wg.Wait()
	want := []int{1, 2, 0}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestVirtualNextDeadline(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a timer on an idle clock")
	}
	_ = v.After(20 * time.Millisecond)
	_ = v.After(10 * time.Millisecond)
	dl, ok := v.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline found no timer")
	}
	want := time.Unix(0, 0).Add(10 * time.Millisecond)
	if !dl.Equal(want) {
		t.Errorf("NextDeadline = %v, want %v", dl, want)
	}
}

func TestVirtualManyWaitersOneAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	const n = 100
	chans := make([]<-chan time.Time, n)
	for i := range chans {
		chans[i] = v.After(time.Duration(i+1) * time.Millisecond)
	}
	v.Advance(time.Duration(n) * time.Millisecond)
	for i, ch := range chans {
		select {
		case <-ch:
		default:
			t.Fatalf("waiter %d did not fire", i)
		}
	}
	if v.PendingTimers() != 0 {
		t.Errorf("%d timers still pending after full advance", v.PendingTimers())
	}
}

// A stopped virtual timer leaves the pending set at once and never
// fires; stopping it again, or after it fired, reports false.
func TestVirtualTimerStop(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	keep := v.NewTimer(20 * time.Millisecond)
	stop := v.NewTimer(10 * time.Millisecond)
	if n := v.PendingTimers(); n != 2 {
		t.Fatalf("%d timers pending, want 2", n)
	}
	if !stop.Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	if n := v.PendingTimers(); n != 1 {
		t.Errorf("%d timers pending after Stop, want 1", n)
	}
	if stop.Stop() {
		t.Error("a second Stop reported true")
	}
	v.Advance(20 * time.Millisecond)
	select {
	case <-stop.C():
		t.Error("a stopped timer fired")
	default:
	}
	select {
	case <-keep.C():
	default:
		t.Fatal("the other timer did not fire at its deadline")
	}
	if keep.Stop() {
		t.Error("Stop after firing reported true")
	}
}

func TestRealTimerStop(t *testing.T) {
	var c Real
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Error("Stop of a pending wall-clock timer reported false")
	}
	select {
	case <-c.NewTimer(time.Millisecond).C():
	case <-time.After(time.Second):
		t.Fatal("Real.NewTimer never fired")
	}
}
