package site

import (
	"sync"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
)

// testCluster wires n sites over a simnet for integration tests.
type testCluster struct {
	t     *testing.T
	net   *simnet.Net
	sites []*Site
	logs  []*wal.MemLog
	dbs   []*store.Durable

	mu      sync.Mutex
	commits []CommitInfo
}

// newTestCluster builds an n-site cluster; cfg mutates the base
// per-site config (nil for defaults).
func newTestCluster(t *testing.T, n int, netCfg simnet.Config, mutate func(i int, c *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, net: simnet.New(netCfg)}
	peers := make([]ident.SiteID, n)
	for i := range peers {
		peers[i] = ident.SiteID(i + 1)
	}
	for i := 0; i < n; i++ {
		id := peers[i]
		log := wal.NewMemLog()
		db := store.New()
		cfg := Config{
			ID:              id,
			Peers:           peers,
			Log:             log,
			DB:              db,
			Endpoint:        tc.net.Endpoint(id),
			CC:              cc.New(cc.Conc1),
			RetransmitEvery: 5 * time.Millisecond,
			DefaultTimeout:  80 * time.Millisecond,
			OnCommit: func(ci CommitInfo) {
				tc.mu.Lock()
				tc.commits = append(tc.commits, ci)
				tc.mu.Unlock()
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("site %v: %v", id, err)
		}
		tc.sites = append(tc.sites, s)
		tc.logs = append(tc.logs, log)
		tc.dbs = append(tc.dbs, db)
	}
	for _, s := range tc.sites {
		s.Start()
	}
	// Stop the sites' loops with the test: a package run, let alone a
	// -count=50 one, otherwise piles up thousands of 5 ms retransmit
	// tickers that starve later tests' 80 ms timeouts.
	t.Cleanup(func() {
		for _, s := range tc.sites {
			s.Crash()
		}
		tc.net.Close()
	})
	return tc
}

// createItem splits total evenly across all sites (the §3 initial
// distribution), each share a logged placement.
func (tc *testCluster) createItem(item ident.ItemID, total core.Value) {
	tc.t.Helper()
	for i, share := range core.EvenShares(total, len(tc.sites)) {
		place(tc.t, tc.sites[i], item, share)
	}
}

// place logs site s's share of item (Place), which must be new there.
func place(t testing.TB, s *Site, item ident.ItemID, share core.Value) {
	t.Helper()
	if _, skipped, err := s.Place([]wal.Action{{Item: item, Delta: share}}); err != nil || len(skipped) != 0 {
		t.Fatalf("place %s at %v: err %v, skipped %v", item, s.ID(), err, skipped)
	}
}

// globalTotal computes Σ_i d_i + in-flight Vm for item: the
// conservation quantity N = N_1 + … + N_n + N_M of §3. Only meaningful
// at quiescent points.
func (tc *testCluster) globalTotal(item ident.ItemID) core.Value {
	var sum core.Value
	for _, s := range tc.sites {
		sum += s.DB().Value(item)
	}
	for _, si := range tc.sites {
		for _, sj := range tc.sites {
			if si == sj {
				continue
			}
			for _, v := range si.VM().PendingTo(sj.ID()) {
				if v.Item == item && !sj.VM().Accepted(si.ID(), v.Seq) {
					sum += v.Amount
				}
			}
		}
	}
	return sum
}

// settle waits for in-flight traffic to drain (real-clock tests).
func (tc *testCluster) settle() {
	tc.net.Quiesce()
}

// waitQuiescent polls until globalTotal for an item is stable and all
// retransmission sets are empty, or the deadline passes.
func (tc *testCluster) waitQuiescent(item ident.ItemID, deadline time.Duration) {
	tc.t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		tc.net.Quiesce()
		pending := 0
		for _, s := range tc.sites {
			pending += len(s.VM().PendingAll())
		}
		if pending == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitUntil polls cond until it holds or the deadline passes —
// condition-based synchronization instead of wall-clock sleeps, so
// -race runs are timing-independent.
func waitUntil(t *testing.T, deadline time.Duration, what string, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("condition %q not reached within %v", what, deadline)
}

// peekItem runs fn on item's volatile state under its stripe.
func peekItem(s *Site, item ident.ItemID, fn func(st *itemState)) {
	stripe, st := s.lockItem(item)
	defer stripe.Unlock()
	fn(st)
}

// lockHeld reports whether any transaction currently holds the lock
// on item at s — the observable signal that a concurrent Run has
// passed its §5 step-1 lock acquisition.
func lockHeld(s *Site, item ident.ItemID) bool {
	held := false
	peekItem(s, item, func(st *itemState) { held = st.holder != ident.NoTxn })
	return held
}

// stampAt is item's stamp TS(d) at s, as AllowLock reads it.
func stampAt(s *Site, item ident.ItemID) tstamp.TS {
	var ts tstamp.TS
	peekItem(s, item, func(st *itemState) { ts = s.stampOf(st) })
	return ts
}

// parkedOn counts the Vm parked behind item's lock at s.
func parkedOn(s *Site, item ident.ItemID) int {
	n := 0
	peekItem(s, item, func(st *itemState) { n = len(st.deferred) })
	return n
}

// parkedWaiters counts the transactions parked in §5 step 3 at s (a
// transaction holding several items counts once).
func parkedWaiters(s *Site) int {
	seen := make(map[*waiter]bool)
	for i := range s.stripes {
		s.stripes[i].Lock()
		for _, st := range s.items[i] {
			if st.waiter != nil {
				seen[st.waiter] = true
			}
		}
		s.stripes[i].Unlock()
	}
	return len(seen)
}

func (tc *testCluster) committedTxns() []cc.CommittedTxn {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]cc.CommittedTxn, 0, len(tc.commits))
	for _, ci := range tc.commits {
		out = append(out, ci.CommittedTxn)
	}
	return out
}
