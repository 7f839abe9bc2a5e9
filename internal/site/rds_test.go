package site

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/wire"
)

// TestVmAcceptIntoFreeItemStampsAndReports pins the Rds-as-two-
// transactions semantics (§6): a SendValue deduct and its credit at
// the receiving site are each their own locally-serialized
// transaction. The credit into a free item must (a) stamp the value
// with a fresh timestamp — so a later full read cannot be admitted at
// a timestamp below a credit it already observed — and (b) surface
// through OnRds with that stamp, strictly after the deduct's, so
// exact serializability checkers can replay the in-flight window.
func TestVmAcceptIntoFreeItemStampsAndReports(t *testing.T) {
	var mu sync.Mutex
	var events []RdsInfo
	tc := newTestCluster(t, 2, simnet.Config{Seed: 11}, func(i int, c *Config) {
		c.OnRds = func(ri RdsInfo) {
			mu.Lock()
			events = append(events, ri)
			mu.Unlock()
		}
	})
	for i, s := range tc.sites {
		share := core.Value(0)
		if i == 0 {
			share = 10
		}
		if err := s.DB().Create("x", share); err != nil {
			t.Fatal(err)
		}
	}

	if err := tc.sites[0].SendValue("x", 2, 4); err != nil {
		t.Fatal(err)
	}
	// The hook fires after the store apply, so the credit being visible
	// does not mean its event is: wait for the event.
	waitUntil(t, time.Second, "both halves reported", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) == 2
	})

	stamp := stampAt(tc.sites[1], "x")
	if stamp == 0 {
		t.Error("free-item Vm accept left the value unstamped: a later reader can serialize below the credit")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("OnRds fired %d times, want 2 (deduct + credit): %+v", len(events), events)
	}
	var deduct, credit *RdsInfo
	for k := range events {
		switch {
		case events[k].Delta < 0:
			deduct = &events[k]
		case events[k].Delta > 0:
			credit = &events[k]
		}
	}
	if deduct == nil || credit == nil {
		t.Fatalf("missing a half: %+v", events)
	}
	if deduct.Site != 1 || deduct.Item != "x" || deduct.Delta != -4 {
		t.Errorf("deduct = %+v, want site 1 x -4", *deduct)
	}
	if credit.Site != 2 || credit.Item != "x" || credit.Delta != 4 {
		t.Errorf("credit = %+v, want site 2 x 4", *credit)
	}
	if credit.TS <= deduct.TS {
		t.Errorf("credit TS %v not after deduct TS %v — the in-flight window has no serial extent", credit.TS, deduct.TS)
	}
	if stamp != credit.TS {
		t.Errorf("value stamped %v but credit reported %v — checker and site disagree on the serial position", stamp, credit.TS)
	}
}

// TestDeferredVmRedeliversOnUnlock pins the park-and-redeliver path: a
// Vm that finds its item locked by a transaction it is not addressed
// to must not be spliced into that transaction (the §4.2 ignore), but
// must land as soon as the lock releases — without waiting out the
// sender's retransmit interval, which a busy item might never overlap.
func TestDeferredVmRedeliversOnUnlock(t *testing.T) {
	tc := newTestCluster(t, 2, simnet.Config{Seed: 12}, func(i int, c *Config) {
		// Retransmission alone must not be the delivery path here.
		c.RetransmitEvery = 10 * time.Second
	})
	for i, s := range tc.sites {
		share := core.Value(0)
		if i == 0 {
			share = 10
		}
		if err := s.DB().Create("x", share); err != nil {
			t.Fatal(err)
		}
	}

	dst := tc.sites[1]
	blocker := ident.TxnID(7)
	peekItem(dst, "x", func(st *itemState) { st.holder = blocker })
	if err := tc.sites[0].SendValue("x", 2, 4); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, time.Second, "Vm parked at the locked destination", func() bool {
		return parkedOn(dst, "x") == 1
	})
	if got := dst.DB().Value("x"); got != 0 {
		t.Fatalf("credit landed through a held lock: value = %d", got)
	}

	var parked []deferredVm
	peekItem(dst, "x", func(st *itemState) { parked = releaseItems(blocker, []*itemState{st}) })
	if len(parked) != 1 || lockHeld(dst, "x") {
		t.Fatalf("release took %d parked Vm and left the lock held=%v, want 1 and free", len(parked), lockHeld(dst, "x"))
	}
	dst.redeliver(parked)
	if got := dst.DB().Value("x"); got != 4 {
		t.Errorf("value = %d after unlock redelivery, want 4", got)
	}
	if left := parkedOn(dst, "x"); left != 0 {
		t.Errorf("%d Vm still parked after redelivery", left)
	}
}

// TestSendValueHoldsLockThroughDispatch pins the window between an
// Rds's log append and its Vm dispatch: the item's lock stays held
// across it, so a caller racing the rebalancer — another SendValue
// that read the same pre-transfer quota — aborts no-wait instead of
// shipping the same surplus a second time. A tap parks the first Vm
// inside the window; the racing transfer must fail while it is there.
func TestSendValueHoldsLockThroughDispatch(t *testing.T) {
	tc := newTestCluster(t, 2, simnet.Config{Seed: 13}, nil)
	parked, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	tc.net.SetTap(func(_, _ ident.SiteID, kind wire.Kind, _ []byte) {
		if kind == wire.KVm && first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unpark) // before the cluster's cleanup crashes the sites
	for i, s := range tc.sites {
		share := core.Value(0)
		if i == 0 {
			share = 10
		}
		if err := s.DB().Create("x", share); err != nil {
			t.Fatal(err)
		}
	}

	src := tc.sites[0]
	done := make(chan error, 1)
	go func() { done <- src.SendValue("x", 2, 5) }()
	<-parked
	if err := src.SendValue("x", 2, 5); err == nil {
		t.Error("a second transfer shipped while the first was still dispatching")
	}
	if !lockHeld(src, "x") {
		t.Error("the item's lock was released before the Vm was dispatched")
	}
	unpark()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tc.waitQuiescent("x", time.Second)
	if got := tc.sites[1].DB().Value("x"); got != 5 {
		t.Errorf("receiver holds %d, want 5", got)
	}
}
