package site

import (
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wire"
)

func TestCrashAbortsInFlightAndRecovers(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 20}, nil)
	tc.createItem("flight/A", 0) // unsatisfiable: txns will wait

	done := make(chan *txn.Result, 1)
	go func() {
		done <- tc.sites[0].Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: "flight/A", Op: core.Decr{M: 5}}},
			Timeout: 5 * time.Second, // would hang if crash didn't abort it
			Ask:     txn.AskAll,
		})
	}()
	// Crash only once the transaction is provably in its step-3 wait
	// (lock held), so the SiteDown path is the one under test.
	waitUntil(t, 2*time.Second, "txn holds the lock", func() bool {
		return lockHeld(tc.sites[0], "flight/A")
	})
	tc.sites[0].Crash()
	select {
	case res := <-done:
		if res.Status != txn.StatusSiteDown {
			t.Errorf("crashed txn status = %v, want site-down", res.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crash did not abort the waiting transaction (blocking!)")
	}

	if err := tc.sites[0].Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// Site is usable immediately.
	res := tc.sites[0].Run(cancel("flight/A", 7))
	if !res.Committed() {
		t.Errorf("post-restart txn: %v", res.Status)
	}
	tc.waitQuiescent("flight/A", time.Second)
	if got := tc.globalTotal("flight/A"); got != 7 {
		t.Errorf("N = %d, want 7", got)
	}
}

func TestRecoveryIsIndependentOfNetwork(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 21}, nil)
	tc.createItem("flight/A", 100)
	// Generate log history.
	for i := 0; i < 5; i++ {
		if res := tc.sites[1].Run(reserve("flight/A", 2)); !res.Committed() {
			t.Fatal(res.Status)
		}
	}
	tc.sites[1].Crash()
	// Total partition: recovery must not care (§7 independence).
	tc.net.Partition([]ident.SiteID{1}, []ident.SiteID{2}, []ident.SiteID{3}, []ident.SiteID{4})
	if err := tc.sites[1].Restart(); err != nil {
		t.Fatalf("restart under partition: %v", err)
	}
	// And processing resumes on local quota alone.
	res := tc.sites[1].Run(reserve("flight/A", 3))
	if !res.Committed() {
		t.Errorf("post-recovery local txn during partition: %v", res.Status)
	}
	if v := tc.sites[1].DB().Value("flight/A"); v != 12 {
		t.Errorf("site 2 quota = %d, want 12 (25-10-3)", v)
	}
}

func TestCrashedGrantorDoesNotLoseValue(t *testing.T) {
	// A site grants quota (Vm created, logged) and crashes before the
	// real message survives; after restart the Vm is retransmitted
	// and the value arrives. "A Vm is never lost."
	tc := newTestCluster(t, 2, simnet.Config{Seed: 22, LossProb: 1.0}, nil)
	tc.createItem("flight/A", 20) // 10 each

	// With 100% loss, site 1's request can't even reach site 2.
	// Drop loss after installing: we only want to lose the Vm's first
	// transmission. Instead: run the request with loss off, then cut
	// site 2 the moment it grants. Simpler deterministic approach:
	// drive the grant path directly.
	tc.net.Close()

	tc2 := newTestCluster(t, 2, simnet.Config{Seed: 23}, nil)
	tc2.createItem("flight/A", 20)
	// Cut the granting site's outbound link so its Vm cannot arrive.
	tc2.net.SetLink(2, 1, false)
	res := tc2.sites[0].Run(&txn.Txn{
		Ops:     []txn.ItemOp{{Item: "flight/A", Op: core.Decr{M: 15}}},
		Timeout: 60 * time.Millisecond,
		Ask:     txn.AskAll,
	})
	if res.Status != txn.StatusTimeout {
		t.Fatalf("txn with cut reply link: %v, want timeout", res.Status)
	}
	// Site 2 granted (logged, deducted): its quota dropped; value is
	// in flight, frozen behind the dead link.
	tc2.net.Quiesce()
	if v := tc2.sites[1].DB().Value("flight/A"); v >= 10 {
		t.Fatalf("grantor quota = %d, expected deduction", v)
	}
	if got := tc2.globalTotal("flight/A"); got != 20 {
		t.Fatalf("N = %d with Vm in flight, want 20", got)
	}
	// Crash and restart the grantor; the pending Vm must survive via
	// the log.
	tc2.sites[1].Crash()
	if err := tc2.sites[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if len(tc2.sites[1].VM().PendingAll()) == 0 {
		t.Fatal("pending Vm lost across crash")
	}
	// Restore the link: retransmission delivers, value lands at 1.
	tc2.net.SetLink(2, 1, true)
	tc2.waitQuiescent("flight/A", 2*time.Second)
	if got := tc2.globalTotal("flight/A"); got != 20 {
		t.Errorf("N = %d after heal, want 20", got)
	}
	var at1 core.Value
	for _, s := range tc2.sites {
		at1 += s.DB().Value("flight/A")
	}
	if at1 != 20 {
		t.Errorf("on-site total = %d, want 20 (nothing left in flight)", at1)
	}
}

func TestCheckpointBoundsRecovery(t *testing.T) {
	tc := newTestCluster(t, 2, simnet.Config{Seed: 24}, nil)
	tc.createItem("flight/A", 10)
	for i := 0; i < 20; i++ {
		tc.sites[0].Run(cancel("flight/A", 1))
	}
	if err := tc.sites[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tc.sites[0].Run(cancel("flight/A", 1))
	}
	tc.sites[0].Crash()
	if err := tc.sites[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if v := tc.sites[0].DB().Value("flight/A"); v != 28 {
		t.Errorf("value after checkpointed recovery = %d, want 28", v)
	}
	// Post-recovery transactions must draw fresh timestamps (no
	// duplicate TxnIDs): run more txns and verify they commit.
	for i := 0; i < 3; i++ {
		if res := tc.sites[0].Run(cancel("flight/A", 1)); !res.Committed() {
			t.Errorf("post-checkpoint-recovery txn %d: %v", i, res.Status)
		}
	}
}

func TestAllSitesCrashOneRecoversAndWorks(t *testing.T) {
	// §7: "even if all sites fail and subsequently one site recovers
	// ... it can begin doing some useful work".
	tc := newTestCluster(t, 3, simnet.Config{Seed: 25}, nil)
	tc.createItem("flight/A", 30)
	for _, s := range tc.sites {
		s.Crash()
	}
	if err := tc.sites[2].Restart(); err != nil {
		t.Fatal(err)
	}
	res := tc.sites[2].Run(reserve("flight/A", 5))
	if !res.Committed() {
		t.Errorf("lone recovered site: %v", res.Status)
	}
	if v := tc.sites[2].DB().Value("flight/A"); v != 5 {
		t.Errorf("quota = %d, want 5", v)
	}
}

// TestConcurrencySerializabilitySoak runs a randomized concurrent
// workload (with faults) and verifies the paper's §6 correctness
// criterion plus conservation at the end.
func TestConcurrencySerializabilitySoak(t *testing.T) {
	const nSites = 5
	const total = core.Value(500)
	tc := newTestCluster(t, nSites, simnet.Config{
		Seed: 26, LossProb: 0.05, DupProb: 0.05, MaxDelay: time.Millisecond,
	}, nil)
	tc.createItem("acct/x", total)
	tc.createItem("acct/y", total)

	var wg sync.WaitGroup
	for w := 0; w < nSites; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			s := tc.sites[w]
			for i := 0; i < 40; i++ {
				item := ident.ItemID("acct/x")
				if rng.Intn(2) == 0 {
					item = "acct/y"
				}
				var tx *txn.Txn
				switch rng.Intn(4) {
				case 0:
					tx = cancel(item, core.Value(rng.Intn(5)))
				case 1, 2:
					tx = reserve(item, core.Value(rng.Intn(20)))
					tx.Timeout = 60 * time.Millisecond
				case 3:
					tx = readItem(item)
					tx.Timeout = 60 * time.Millisecond
				}
				s.Run(tx)
			}
		}(w)
	}
	wg.Wait()
	tc.waitQuiescent("acct/x", 3*time.Second)

	// Conservation.
	initial := map[ident.ItemID]core.Value{"acct/x": total, "acct/y": total}
	final := map[ident.ItemID]core.Value{
		"acct/x": tc.globalTotal("acct/x"),
		"acct/y": tc.globalTotal("acct/y"),
	}
	// Serializability subject to redistribution (§6), including every
	// full-read observation — via the Conc1 timestamp-order replay AND
	// the scheme-agnostic value-flow checker.
	committed := tc.committedTxns()
	if err := cc.CheckSerializable(initial, final, committed); err != nil {
		t.Errorf("history not serializable (TS order): %v", err)
	}
	if err := cc.CheckSerializableFlow(initial, final, committed); err != nil {
		t.Errorf("history not serializable (flow order): %v", err)
	}
}

// TestSoakWithCrashes adds site crashes/restarts to the soak and
// re-verifies conservation (reads are excluded from workload since a
// crashed site's share is temporarily inaccessible, per §8).
func TestSoakWithCrashes(t *testing.T) {
	const nSites = 4
	const total = core.Value(400)
	tc := newTestCluster(t, nSites, simnet.Config{
		Seed: 27, LossProb: 0.05, MaxDelay: time.Millisecond,
	}, nil)
	tc.createItem("acct/x", total)

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() { // crash/restart loop on site 4
		defer chaos.Done()
		s := tc.sites[3]
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			s.Crash()
			time.Sleep(10 * time.Millisecond)
			if err := s.Restart(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < nSites; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 200))
			s := tc.sites[w]
			for i := 0; i < 30; i++ {
				if rng.Intn(2) == 0 {
					s.Run(cancel("acct/x", core.Value(rng.Intn(4))))
				} else {
					tx := reserve("acct/x", core.Value(rng.Intn(15)))
					tx.Timeout = 50 * time.Millisecond
					s.Run(tx)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
	if !tc.sites[3].Up() {
		tc.sites[3].Restart()
	}
	tc.waitQuiescent("acct/x", 5*time.Second)

	var committedDelta core.Value
	for _, ci := range tc.committedTxns() {
		committedDelta += ci.Deltas["acct/x"]
	}
	want := total + committedDelta
	if got := tc.globalTotal("acct/x"); got != want {
		t.Errorf("N = %d, want %d — value lost or duplicated across crashes", got, want)
	}
}

// Conc1 stamps an item at lock time and logs the stamp only with an
// action on the item, so a crash can lose it. Site 1 holds all of d; a
// full read at site 1 gathers the NoShare answers of sites 2 and 3 and
// commits writing no record at all, so the read's stamp on site 1's d
// lives in the store alone, and only the clock reservation covers it. Site 1 crashes and restarts. Then a request
// from site 3 stamped below the read — delayed past all of it, its
// transaction long gone — arrives. Honouring it would deduct at a stamp
// below a committed read of the value it deducts from: the history
// would not be serializable in timestamp order. The restarted site
// declines it, and the history checks serializable.
func TestLostLockStampAdmitsNothingBelowACommit(t *testing.T) {
	var mu sync.Mutex
	var rds []RdsInfo
	tc := newTestCluster(t, 3, simnet.Config{Seed: 61}, func(i int, c *Config) {
		c.OnRds = func(r RdsInfo) {
			mu.Lock()
			rds = append(rds, r)
			mu.Unlock()
		}
	})
	const d = ident.ItemID("d")
	for i, q := range []core.Value{10, 0, 0} {
		place(t, tc.sites[i], d, q)
	}
	s := tc.sites[0]
	for i := 0; i < 5; i++ {
		s.lamport.Next() // the read draws a stamp above site 3's first
	}
	logged := tc.logs[0].LastLSN()
	res := s.Run(&txn.Txn{Reads: []ident.ItemID{d}, Ask: txn.AskAll, Timeout: 2 * time.Second})
	if !res.Committed() || res.Reads[d] != 10 {
		t.Fatalf("full read: %v, read %d, want committed and 10", res.Status, res.Reads[d])
	}
	if got := tc.logs[0].LastLSN(); got != logged {
		t.Fatalf("the full read logged %d record(s) at site 1, want none", got-logged)
	}
	tc.waitQuiescent(d, 2*time.Second)
	read := tc.committedTxns()[0].TS

	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	below := tstamp.Make(1, 3)
	if below >= read {
		t.Fatalf("request stamp %v not below the read's %v", below, read)
	}
	s.handle(&wire.Envelope{From: 3, To: 1, Msg: &wire.Request{Txn: below, Item: d, Want: 1}})
	tc.waitQuiescent(d, 2*time.Second)
	if v := s.DB().Value(d); v != 10 {
		t.Errorf("site 1 holds %d of d, want 10: it honoured a request stamped below a committed read", v)
	}

	txns := tc.committedTxns()
	byTS := make(map[tstamp.TS]int)
	for k := range txns {
		txns[k].Deltas = maps.Clone(txns[k].Deltas)
		byTS[txns[k].TS] = k
	}
	mu.Lock()
	for _, e := range rds {
		k, ok := byTS[e.TS]
		if !ok {
			txns = append(txns, cc.CommittedTxn{TS: e.TS, Site: e.Site, Deltas: map[ident.ItemID]core.Value{}})
			k = len(txns) - 1
			byTS[e.TS] = k
		}
		txns[k].Deltas[d] += e.Delta
	}
	mu.Unlock()
	initial := map[ident.ItemID]core.Value{d: 10}
	final := map[ident.ItemID]core.Value{d: tc.globalTotal(d)}
	if err := cc.CheckSerializable(initial, final, txns); err != nil {
		t.Errorf("history across the crash: %v", err)
	}
}
