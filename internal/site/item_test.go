package site

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// TestCrashWakesParkedWaiterExactlyOnce parks a transaction in its §5
// step-3 wait, crash-cycles the site twice, and checks (a) the parked
// transaction observes StatusSiteDown exactly once, (b) each Crash
// emits exactly one site-down flight event tagged with its epoch and
// the number of waiters its sweep failed, and (c) a waiter parked in
// the new epoch is untouched by the old epoch's sweep and is failed by
// the next Crash, not before.
func TestCrashWakesParkedWaiterExactlyOnce(t *testing.T) {
	fl := obs.NewFlight(256)
	tc := newTestCluster(t, 3, simnet.Config{Seed: 31}, func(i int, c *Config) {
		if i == 0 {
			c.Flight = fl
		}
	})
	tc.createItem("wt/A", 0) // unsatisfiable: txns park in step 3

	park := func() chan *txn.Result {
		ch := make(chan *txn.Result, 2) // room for a double-wake to land
		go func() {
			ch <- tc.sites[0].Run(&txn.Txn{
				Ops:     []txn.ItemOp{{Item: "wt/A", Op: core.Decr{M: 5}}},
				Timeout: 5 * time.Second,
				Ask:     txn.AskAll,
			})
		}()
		return ch
	}

	siteDownEvents := func() []string {
		var out []string
		for _, e := range fl.Last(256) {
			if e.Kind == "site-down" {
				out = append(out, e.Detail)
			}
		}
		return out
	}

	first := park()
	waitUntil(t, 2*time.Second, "txn holds the lock", func() bool {
		return lockHeld(tc.sites[0], "wt/A")
	})
	tc.sites[0].Crash()

	select {
	case res := <-first:
		if res.Status != txn.StatusSiteDown {
			t.Fatalf("parked txn status = %v, want site-down", res.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash did not wake the parked waiter")
	}

	evs := siteDownEvents()
	if len(evs) != 1 {
		t.Fatalf("site-down flight events after first crash = %d, want 1 (%q)", len(evs), evs)
	}
	checkDrainEvent(t, evs[0], 1)

	if err := tc.sites[0].Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}

	// Park a second transaction in the new epoch, then crash again:
	// the old epoch's drain already happened, so only the new Crash
	// may fail it — and the first waiter must see nothing further.
	second := park()
	waitUntil(t, 2*time.Second, "second txn holds the lock", func() bool {
		return lockHeld(tc.sites[0], "wt/A")
	})
	tc.sites[0].Crash()

	select {
	case res := <-second:
		if res.Status != txn.StatusSiteDown {
			t.Fatalf("second parked txn status = %v, want site-down", res.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second crash did not wake the parked waiter")
	}

	evs = siteDownEvents()
	if len(evs) != 2 {
		t.Fatalf("site-down flight events after second crash = %d, want 2 (%q)", len(evs), evs)
	}
	checkDrainEvent(t, evs[1], 1)
	if evs[0] == evs[1] {
		t.Errorf("both site-down events carry identical detail %q; epochs should differ", evs[0])
	}

	// Exactly once: the first waiter's channel has delivered its one
	// result and nothing else arrives from the second epoch's drain.
	select {
	case res := <-first:
		t.Errorf("first waiter woke twice; second result %v", res.Status)
	case <-time.After(50 * time.Millisecond):
	}

	if err := tc.sites[0].Restart(); err != nil {
		t.Fatalf("second restart: %v", err)
	}
}

// checkDrainEvent asserts one site-down detail string reports the
// epoch and waiters=wantWaiters.
func checkDrainEvent(t *testing.T, detail string, wantWaiters int) {
	t.Helper()
	if !strings.Contains(detail, "epoch=") {
		t.Errorf("site-down detail %q lacks epoch tag", detail)
	}
	waiters := -1
	for _, f := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(f, "waiters="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("site-down detail %q: bad waiters: %v", detail, err)
			}
			waiters = n
		}
	}
	if waiters != wantWaiters {
		t.Errorf("site-down reports waiters=%d, want %d (%q)", waiters, wantWaiters, detail)
	}
}

// TestCrashWakesTwoStripeWaiterOnce parks one transaction on two items
// that live in different stripes: Crash's sweep meets its waiter twice
// and must count and wake it once, and leave both items free.
func TestCrashWakesTwoStripeWaiterOnce(t *testing.T) {
	fl := obs.NewFlight(64)
	tc := newTestCluster(t, 2, simnet.Config{Seed: 32}, func(i int, c *Config) {
		if i == 0 {
			c.Flight = fl
		}
	})
	s := tc.sites[0]
	a, b := ident.ItemID("two/0"), ident.ItemID("two/1")
	for k := 2; s.stripeOf(a) == s.stripeOf(b); k++ {
		b = ident.ItemID("two/" + strconv.Itoa(k))
	}
	tc.createItem(a, 0) // unsatisfiable: the txn parks in step 3
	tc.createItem(b, 0)

	done := make(chan *txn.Result, 1)
	go func() {
		done <- s.Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: a, Op: core.Decr{M: 1}}, {Item: b, Op: core.Decr{M: 1}}},
			Timeout: 5 * time.Second,
			Ask:     txn.AskAll,
		})
	}()
	waitUntil(t, 2*time.Second, "txn parked on both items", func() bool {
		return lockHeld(s, a) && lockHeld(s, b)
	})
	var wa, wb *waiter
	peekItem(s, a, func(st *itemState) { wa = st.waiter })
	peekItem(s, b, func(st *itemState) { wb = st.waiter })
	if wa == nil || wa != wb {
		t.Fatalf("items carry waiters %p and %p, want one shared parking record", wa, wb)
	}
	if n := parkedWaiters(s); n != 1 {
		t.Fatalf("parkedWaiters = %d, want 1", n)
	}

	s.Crash()
	select {
	case res := <-done:
		if res.Status != txn.StatusSiteDown {
			t.Fatalf("parked txn status = %v, want site-down", res.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash did not wake the parked waiter")
	}
	if n := len(wa.notify); n != 0 {
		t.Errorf("%d wake still pending after the transaction returned: woken more than once", n)
	}
	if lockHeld(s, a) || lockHeld(s, b) || parkedWaiters(s) != 0 {
		t.Errorf("after crash: a held=%v b held=%v waiters=%d, want both free and none",
			lockHeld(s, a), lockHeld(s, b), parkedWaiters(s))
	}
	var evs []string
	for _, e := range fl.Last(64) {
		if e.Kind == "site-down" {
			evs = append(evs, e.Detail)
		}
	}
	if len(evs) != 1 {
		t.Fatalf("site-down flight events = %d, want 1 (%q)", len(evs), evs)
	}
	checkDrainEvent(t, evs[0], 1)
}

// TestDeferredVmRedeliveredByRelease: a Vm parked behind a lock is
// taken and redelivered by the release itself, on each exit that
// releases — commit, timeout, commit-append error — without waiting
// for the sender's retransmission.
func TestDeferredVmRedeliveredByRelease(t *testing.T) {
	const item = ident.ItemID("x")
	cases := []struct {
		name       string
		timeout    time.Duration
		grant      bool // hand site 2 the request so the txn can commit
		failCommit bool
		want       txn.Status
		after      core.Value // site 1's x once Run has returned
	}{
		{name: "commit", timeout: 5 * time.Second, grant: true, want: txn.StatusCommitted, after: 10 + 5 - 15 + 3},
		{name: "timeout", timeout: 40 * time.Millisecond, want: txn.StatusTimeout, after: 10 + 3},
		{name: "commit-append error", timeout: 5 * time.Second, grant: true, failCommit: true, want: txn.StatusSiteDown, after: 10 + 5 + 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, simnet.Config{Seed: 33}, func(i int, cfg *Config) {
				// Retransmission must not be the delivery path here.
				cfg.RetransmitEvery = 10 * time.Second
			})
			tc.createItem(item, 30) // 10 per site
			s := tc.sites[0]
			// The transaction's own requests are lost: it stays parked
			// until the test grants by hand.
			tc.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool { return kind != wire.KRequest })

			done := make(chan *txn.Result, 1)
			go func() {
				done <- s.Run(&txn.Txn{
					Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
					Timeout: c.timeout,
					Ask:     txn.AskAll,
				})
			}()
			waitUntil(t, 2*time.Second, "txn parked", func() bool { return parkedWaiters(s) == 1 })
			var w *waiter
			peekItem(s, item, func(st *itemState) { w = st.waiter })

			// A credit the transaction did not ask for parks behind its lock.
			if err := tc.sites[2].SendValue(item, 1, 3); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 2*time.Second, "foreign Vm parked behind the lock", func() bool { return parkedOn(s, item) == 1 })
			if got := s.DB().Value(item); got != 10 {
				t.Fatalf("credit landed through a held lock: value = %d", got)
			}

			if c.failCommit {
				tc.logs[0].SetAppendHook(func(r wal.Record) error {
					if r.Kind == wal.RecCommit {
						return errors.New("disk full")
					}
					return nil
				})
			}
			if c.grant {
				tc.sites[1].handle(&wire.Envelope{From: 1, To: 2, Msg: &wire.Request{Txn: w.ts, Item: item, Want: 5}})
			}
			var res *txn.Result
			select {
			case res = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("transaction did not return")
			}
			if res.Status != c.want {
				t.Fatalf("status = %v, want %v", res.Status, c.want)
			}
			// Run has returned: the release has already redelivered.
			if got := s.DB().Value(item); got != c.after {
				t.Errorf("site 1 x = %d after the release, want %d", got, c.after)
			}
			if lockHeld(s, item) || parkedOn(s, item) != 0 || parkedWaiters(s) != 0 {
				t.Errorf("after release: held=%v parked=%d waiters=%d, want free, 0, 0",
					lockHeld(s, item), parkedOn(s, item), parkedWaiters(s))
			}
		})
	}
}

// TestItemStateUnderScrapeAndRebalance runs 8 committers on overlapping
// items while a scraper renders the registry (the parked-credit gauge
// reads item state under the stripes) and the
// rebalancer advertises and ticks — the race detector's view of "one
// home, one guard".
func TestItemStateUnderScrapeAndRebalance(t *testing.T) {
	reg := obs.NewRegistry()
	tc := newTestCluster(t, 2, simnet.Config{Seed: 34}, func(i int, c *Config) {
		c.Metrics = reg
		c.Rebalance = RebalanceConfig{Interval: 2 * time.Millisecond, Seed: int64(i + 1)}
	})
	items := []ident.ItemID{"ov/0", "ov/1", "ov/2", "ov/3"}
	for _, item := range items {
		tc.createItem(item, 4000)
	}
	s := tc.sites[0]

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Render()
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, site := range tc.sites {
					site.advertiseDemand()
					site.rebalanceTick()
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var committed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 60; k++ {
				a, b := items[(g+k)%len(items)], items[(g+k+1)%len(items)]
				res := s.Run(&txn.Txn{Ops: []txn.ItemOp{{Item: a, Op: core.Decr{M: 1}}, {Item: b, Op: core.Decr{M: 1}}}})
				if res.Committed() {
					committed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	if committed.Load() == 0 {
		t.Fatal("no transaction committed")
	}
	if want := `dvp_rebalance_parked_credits{site="s1"}`; !strings.Contains(reg.Render(), want) {
		t.Errorf("exposition lacks %s", want)
	}
	var total core.Value
	for _, item := range items {
		tc.waitQuiescent(item, 2*time.Second)
		total += tc.globalTotal(item)
	}
	if want := core.Value(4*4000) - 2*core.Value(committed.Load()); total != want {
		t.Errorf("global total = %d after %d commits, want %d", total, committed.Load(), want)
	}
}
