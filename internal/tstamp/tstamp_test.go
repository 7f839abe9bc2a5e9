package tstamp

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dvp/internal/ident"
)

func TestMakeRoundTrip(t *testing.T) {
	ts := Make(42, ident.SiteID(7))
	if ts.Counter() != 42 {
		t.Errorf("Counter = %d, want 42", ts.Counter())
	}
	if ts.Site() != 7 {
		t.Errorf("Site = %v, want s7", ts.Site())
	}
}

func TestMakeRoundTripProperty(t *testing.T) {
	f := func(counter uint64, site uint16) bool {
		counter &= (1 << (64 - SiteBits)) - 1 // representable counters
		ts := Make(counter, ident.SiteID(site))
		return ts.Counter() == counter && ts.Site() == ident.SiteID(site)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderingCounterDominates(t *testing.T) {
	// Higher counter always wins regardless of site id.
	lo := Make(1, ident.SiteID(65535))
	hi := Make(2, ident.SiteID(1))
	if !(lo < hi) {
		t.Errorf("want %v < %v", lo, hi)
	}
}

func TestOrderingSiteBreaksTies(t *testing.T) {
	a := Make(5, 1)
	b := Make(5, 2)
	if !(a < b) {
		t.Errorf("want %v < %v", a, b)
	}
	if a == b {
		t.Error("timestamps from different sites must differ")
	}
}

func TestCeilTopsItsCounter(t *testing.T) {
	c := Ceil(5)
	if c.Counter() != 5 || c <= Make(5, 65534) || c >= Make(6, 0) {
		t.Errorf("Ceil(5) = %v, want the largest stamp with counter 5", c)
	}
}

func TestZero(t *testing.T) {
	var z TS
	if !z.IsZero() {
		t.Error("zero TS must report IsZero")
	}
	if z.String() != "ts0" {
		t.Errorf("String = %q", z.String())
	}
	if Make(1, 1).IsZero() {
		t.Error("nonzero TS reported IsZero")
	}
	// The zero timestamp sorts below everything a clock can draw.
	c := NewClock(1)
	if ts := c.Next(); !(z < ts) {
		t.Errorf("zero TS must precede first drawn TS %v", ts)
	}
}

func TestClockStrictlyIncreasing(t *testing.T) {
	c := NewClock(2)
	prev := c.Next()
	for i := 0; i < 1000; i++ {
		ts := c.Next()
		if !(prev < ts) {
			t.Fatalf("clock not strictly increasing: %v then %v", prev, ts)
		}
		prev = ts
	}
}

func TestClockObserveBumpsAhead(t *testing.T) {
	c := NewClock(1)
	remote := Make(100, 2)
	c.Observe(remote)
	if ts := c.Next(); !(remote < ts) {
		t.Errorf("after Observe(%v), Next() = %v is not greater", remote, ts)
	}
}

func TestClockObserveOldIsNoop(t *testing.T) {
	c := NewClock(1)
	for i := 0; i < 10; i++ {
		c.Next()
	}
	was := c.Current()
	c.Observe(Make(3, 2))
	if c.Current() != was {
		t.Errorf("Observe of an old timestamp changed the counter: %d -> %d", was, c.Current())
	}
}

func TestClockRestore(t *testing.T) {
	c := NewClock(4)
	c.Restore(500)
	if got := c.Next(); got.Counter() != 501 {
		t.Errorf("after Restore(500), Next counter = %d, want 501", got.Counter())
	}
	c.Restore(10) // smaller: no-op
	if got := c.Next(); got.Counter() != 502 {
		t.Errorf("Restore(10) should not rewind; Next counter = %d, want 502", got.Counter())
	}
}

func TestClockConcurrentUniqueness(t *testing.T) {
	c := NewClock(3)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	results := make([][]TS, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]TS, per)
			for i := range out {
				out[i] = c.Next()
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[TS]bool, goroutines*per)
	for _, r := range results {
		for _, ts := range r {
			if seen[ts] {
				t.Fatalf("duplicate timestamp %v drawn concurrently", ts)
			}
			seen[ts] = true
		}
	}
}

// TestClockConcurrent mixes Next, Observe and Restore across
// goroutines: every drawn timestamp is distinct, and a Next drawn after
// Observe(ts) or Restore(n) has returned lies above ts or n, however
// the other goroutines' raises interleave.
func TestClockConcurrent(t *testing.T) {
	c := NewClock(3)
	const goroutines, per = 8, 600
	var wg sync.WaitGroup
	results := make([][]TS, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			var out []TS
			for i := 0; i < per; i++ {
				var floor TS
				switch i % 3 {
				case 1:
					floor = Make(c.Current()+uint64(r.Intn(8)), ident.SiteID(r.Intn(4)+1))
					c.Observe(floor)
				case 2:
					n := c.Current() + uint64(r.Intn(8))
					c.Restore(n)
					floor = Make(n, siteMask)
				}
				ts := c.Next()
				if ts <= floor {
					t.Errorf("Next() = %v after raising the clock to %v", ts, floor)
					return
				}
				out = append(out, ts)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[TS]bool, goroutines*per)
	for _, r := range results {
		for _, ts := range r {
			if seen[ts] {
				t.Fatalf("duplicate timestamp %v drawn concurrently", ts)
			}
			seen[ts] = true
		}
	}
}

func TestCrossSiteUniquenessProperty(t *testing.T) {
	// Timestamps from different sites never collide, whatever the counters.
	f := func(c1, c2 uint64, s1, s2 uint16) bool {
		c1 &= (1 << 40) - 1
		c2 &= (1 << 40) - 1
		if s1 == s2 {
			return true
		}
		return Make(c1, ident.SiteID(s1)) != Make(c2, ident.SiteID(s2)) ||
			c1 != c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The reservation words: Claim raises the claimed bound to a stride
// past its counter and returns it, Reserve raises both words, neither
// ever lowers them, and Reset clears them with the counter — under
// concurrent claims and reservations too.
func TestClockConcurrentReservation(t *testing.T) {
	c := NewClock(2)
	if b := c.Claim(5); b != 5+Stride || c.Claimed() != b || c.Bound() != 0 {
		t.Fatalf("Claim(5) = %d: claimed %d, bound %d", b, c.Claimed(), c.Bound())
	}
	c.Reserve(3)
	if c.Claimed() != 5+Stride || c.Bound() != 3 {
		t.Fatalf("Reserve(3): claimed %d, bound %d", c.Claimed(), c.Bound())
	}
	if b := c.Claim(MaxCounter - 1); b != MaxCounter {
		t.Errorf("a claim near the top reaches %d, want MaxCounter", b)
	}
	c.Reset()
	if c.Current()|c.Bound()|c.Claimed() != 0 {
		t.Fatalf("Reset left counter %d, bound %d, claimed %d", c.Current(), c.Bound(), c.Claimed())
	}
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n := c.Next().Counter()
				if i%2 == 0 {
					c.Reserve(c.Claim(n))
				} else {
					c.Claim(n)
				}
				if b := c.Bound(); b > c.Claimed() {
					t.Errorf("bound %d above the claimed %d", b, c.Claimed())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if top := c.Current() + Stride; c.Claimed() != top {
		t.Errorf("claimed %d after every draw claimed, want the last draw's %d", c.Claimed(), top)
	}
}
