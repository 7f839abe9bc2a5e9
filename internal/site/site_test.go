package site

import (
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/txn"
)

func reserve(item ident.ItemID, n core.Value) *txn.Txn {
	return &txn.Txn{Ops: []txn.ItemOp{{Item: item, Op: core.Decr{M: n}}}, Ask: txn.AskAll, Label: "reserve"}
}

func cancel(item ident.ItemID, n core.Value) *txn.Txn {
	return &txn.Txn{Ops: []txn.ItemOp{{Item: item, Op: core.Incr{M: n}}}, Label: "cancel"}
}

func readItem(item ident.ItemID) *txn.Txn {
	return &txn.Txn{Reads: []ident.ItemID{item}, Ask: txn.AskAll, Label: "audit"}
}

// runRetry retries aborted transactions, the application-level loop
// the paper assumes ("the requests could be re-tried a few more
// times", §5). Each retry draws a fresher timestamp, which is also how
// a Conc1 rejection heals.
func runRetry(s *Site, t *txn.Txn, attempts int) *txn.Result {
	var res *txn.Result
	for i := 0; i < attempts; i++ {
		res = s.Run(t)
		if res.Committed() {
			return res
		}
	}
	return res
}

func TestWriteOnlyCommitsLocally(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 1}, nil)
	tc.createItem("flight/A", 100)
	res := tc.sites[0].Run(cancel("flight/A", 5))
	if !res.Committed() {
		t.Fatalf("write-only txn: %v", res.Status)
	}
	if res.RequestsSent != 0 {
		t.Errorf("write-only txn sent %d requests", res.RequestsSent)
	}
	if v := tc.sites[0].DB().Value("flight/A"); v != 30 {
		t.Errorf("local quota = %d, want 30", v)
	}
	tc.settle()
	if got := tc.globalTotal("flight/A"); got != 105 {
		t.Errorf("global total = %d, want 105", got)
	}
}

func TestLocalDecrementNoMessages(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 1}, nil)
	tc.createItem("flight/A", 100)
	res := tc.sites[1].Run(reserve("flight/A", 10))
	if !res.Committed() {
		t.Fatalf("local reserve: %v", res.Status)
	}
	if res.RequestsSent != 0 {
		t.Errorf("adequate local quota still sent %d requests", res.RequestsSent)
	}
	st := tc.net.Stats()
	if st.Sent != 0 {
		t.Errorf("locally-satisfiable txn generated %d network messages", st.Sent)
	}
}

func TestRedistributionSection3(t *testing.T) {
	// The paper's §3 worked example: quotas (2,3,10,15); a customer
	// wants 5 seats at X (site 2); Z grants; the txn commits.
	tc := newTestCluster(t, 4, simnet.Config{Seed: 2, MaxDelay: time.Millisecond}, nil)
	quotas := []core.Value{2, 3, 10, 15}
	for i, s := range tc.sites {
		if err := s.DB().Create("flight/A", quotas[i]); err != nil {
			t.Fatal(err)
		}
	}
	res := tc.sites[1].Run(reserve("flight/A", 5))
	if !res.Committed() {
		t.Fatalf("reserve 5 at X: %v", res.Status)
	}
	if res.RequestsSent == 0 {
		t.Error("shortfall must trigger requests")
	}
	if res.VmAccepted == 0 {
		t.Error("txn should have accepted at least one Vm")
	}
	tc.waitQuiescent("flight/A", time.Second)
	if got := tc.globalTotal("flight/A"); got != 25 {
		t.Errorf("N = %d, want 25 (30 - 5 reserved)", got)
	}
}

func TestInsufficientGlobalValueAborts(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 3}, nil)
	tc.createItem("flight/A", 9) // 3 each
	res := tc.sites[0].Run(reserve("flight/A", 50))
	if res.Status != txn.StatusTimeout {
		t.Fatalf("impossible reserve: %v, want timeout", res.Status)
	}
	tc.waitQuiescent("flight/A", time.Second)
	// Aborted transaction is an Rds transaction: value redistributed
	// (gathered at site 1) but never destroyed.
	if got := tc.globalTotal("flight/A"); got != 9 {
		t.Errorf("N = %d, want 9 after abort", got)
	}
}

func TestFullReadGathersEverything(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 4, MaxDelay: time.Millisecond}, nil)
	tc.createItem("flight/A", 100)
	res := tc.sites[2].Run(readItem("flight/A"))
	if !res.Committed() {
		t.Fatalf("full read: %v", res.Status)
	}
	if got := res.Reads["flight/A"]; got != 100 {
		t.Errorf("read N = %d, want 100", got)
	}
	// All value now lives at the reading site.
	if v := tc.sites[2].DB().Value("flight/A"); v != 100 {
		t.Errorf("reader's quota = %d, want 100", v)
	}
	for i, s := range tc.sites {
		if i != 2 && s.DB().Value("flight/A") != 0 {
			t.Errorf("site %v still holds %d", s.ID(), s.DB().Value("flight/A"))
		}
	}
}

func TestReadAfterUpdatesSeesNetValue(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 5, MaxDelay: time.Millisecond}, nil)
	tc.createItem("flight/A", 100)
	if res := tc.sites[0].Run(reserve("flight/A", 10)); !res.Committed() {
		t.Fatal(res.Status)
	}
	if res := tc.sites[3].Run(cancel("flight/A", 4)); !res.Committed() {
		t.Fatal(res.Status)
	}
	// The first read attempt may be declined under Conc1 (its TS can
	// be older than stamps left by the updates — sites' clocks only
	// sync via messages); a retry draws a fresher TS.
	res := runRetry(tc.sites[1], readItem("flight/A"), 3)
	if !res.Committed() {
		t.Fatalf("read: %v", res.Status)
	}
	if got := res.Reads["flight/A"]; got != 94 {
		t.Errorf("read N = %d, want 94", got)
	}
}

func TestLockConflictAbortsImmediately(t *testing.T) {
	tc := newTestCluster(t, 2, simnet.Config{Seed: 6}, nil)
	tc.createItem("hot", 0) // zero quota: txn will wait on requests
	// First txn grabs the lock and waits (shortfall unsatisfiable).
	done := make(chan *txn.Result, 1)
	go func() { done <- tc.sites[0].Run(reserve("hot", 5)) }()
	// Wait for it to actually hold the lock (no wall-clock guess).
	waitUntil(t, 2*time.Second, "first txn holds the lock", func() bool {
		return lockHeld(tc.sites[0], "hot")
	})
	res2 := tc.sites[0].Run(reserve("hot", 1))
	if res2.Status != txn.StatusLockConflict && res2.Status != txn.StatusCCRejected {
		t.Errorf("concurrent same-site txn: %v, want immediate lock/cc abort", res2.Status)
	}
	res1 := <-done
	if res1.Status != txn.StatusTimeout {
		t.Errorf("first txn: %v, want timeout", res1.Status)
	}
}

func TestTransferBetweenItems(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 7, MaxDelay: time.Millisecond}, nil)
	tc.createItem("flight/A", 30)
	tc.createItem("flight/B", 30)
	// Change reservation: one seat from A to B at site 1.
	change := &txn.Txn{
		Ops: []txn.ItemOp{
			{Item: "flight/A", Op: core.Incr{M: 1}},
			{Item: "flight/B", Op: core.Decr{M: 1}},
		},
		Ask:   txn.AskAll,
		Label: "change",
	}
	res := tc.sites[0].Run(change)
	if !res.Committed() {
		t.Fatalf("change txn: %v", res.Status)
	}
	tc.waitQuiescent("flight/A", time.Second)
	if a, b := tc.globalTotal("flight/A"), tc.globalTotal("flight/B"); a != 31 || b != 29 {
		t.Errorf("totals A=%d B=%d, want 31/29", a, b)
	}
}

func TestNonBlockingUnderTotalPartition(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 8}, nil)
	tc.createItem("flight/A", 100)
	// Isolate every site.
	tc.net.Partition([]ident.SiteID{1}, []ident.SiteID{2}, []ident.SiteID{3}, []ident.SiteID{4})

	// Local-quota transactions still commit.
	res := tc.sites[0].Run(reserve("flight/A", 20))
	if !res.Committed() {
		t.Errorf("local txn during partition: %v", res.Status)
	}
	// Remote-needing transactions abort within the bound — never hang.
	start := time.Now()
	res2 := tc.sites[1].Run(&txn.Txn{
		Ops:     []txn.ItemOp{{Item: "flight/A", Op: core.Decr{M: 50}}},
		Timeout: 60 * time.Millisecond,
		Ask:     txn.AskAll,
	})
	elapsed := time.Since(start)
	if res2.Status != txn.StatusTimeout {
		t.Errorf("partitioned remote txn: %v, want timeout", res2.Status)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("abort took %v — not within the local bound", elapsed)
	}
	// Reads abort too (cannot gather), but never hang.
	res3 := tc.sites[2].Run(&txn.Txn{
		Reads:   []ident.ItemID{"flight/A"},
		Timeout: 60 * time.Millisecond,
	})
	if res3.Status != txn.StatusTimeout {
		t.Errorf("partitioned read: %v", res3.Status)
	}

	// Heal: everything flows again.
	tc.net.Heal()
	res4 := tc.sites[1].Run(reserve("flight/A", 50))
	if !res4.Committed() {
		t.Errorf("post-heal txn: %v", res4.Status)
	}
	tc.waitQuiescent("flight/A", time.Second)
	if got := tc.globalTotal("flight/A"); got != 30 {
		t.Errorf("N = %d, want 30", got)
	}
}

func TestValueSurvivesLossyNetwork(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{
		Seed: 9, LossProb: 0.3, DupProb: 0.2, MaxDelay: 2 * time.Millisecond,
	}, nil)
	tc.createItem("acct/x", 400)
	committed := 0
	for i := 0; i < 30; i++ {
		s := tc.sites[i%4]
		res := s.Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: "acct/x", Op: core.Decr{M: 20}}},
			Timeout: 200 * time.Millisecond,
			Ask:     txn.AskAll,
		})
		if res.Committed() {
			committed++
		}
	}
	tc.waitQuiescent("acct/x", 3*time.Second)
	want := core.Value(400 - committed*20)
	if got := tc.globalTotal("acct/x"); got != want {
		t.Errorf("N = %d, want %d (%d committed): conservation violated under loss",
			got, want, committed)
	}
	if committed == 0 {
		t.Error("nothing committed under 30% loss — retransmission broken?")
	}
}
