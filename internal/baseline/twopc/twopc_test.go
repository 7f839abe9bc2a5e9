package twopc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

type cluster struct {
	t     *testing.T
	net   *simnet.Net
	sites []*Site
}

func newCluster(t *testing.T, n int, netCfg simnet.Config) *cluster {
	t.Helper()
	logs := make([]wal.Log, n)
	for i := range logs {
		logs[i] = wal.NewMemLog()
	}
	return newClusterOnLogs(t, netCfg, logs)
}

// newClusterOnLogs runs one site per log, site i+1 on logs[i].
func newClusterOnLogs(t *testing.T, netCfg simnet.Config, logs []wal.Log) *cluster {
	t.Helper()
	c := &cluster{t: t, net: simnet.New(netCfg)}
	n := len(logs)
	peers := make([]ident.SiteID, n)
	for i := range peers {
		peers[i] = ident.SiteID(i + 1)
	}
	for i := 0; i < n; i++ {
		id := peers[i]
		s, err := New(Config{
			ID:          id,
			Peers:       peers,
			Log:         logs[i],
			DB:          store.New(),
			Endpoint:    c.net.Endpoint(id),
			LockTimeout: 40 * time.Millisecond,
			VoteTimeout: 80 * time.Millisecond,
			RetryEvery:  10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.sites = append(c.sites, s)
	}
	for _, s := range c.sites {
		s.Start()
	}
	t.Cleanup(c.net.Close)
	return c
}

// createItem installs a replica of item with value v at every site.
func (c *cluster) createItem(item ident.ItemID, v core.Value) {
	c.t.Helper()
	for _, s := range c.sites {
		if err := s.Create(item, v); err != nil {
			c.t.Fatal(err)
		}
	}
}

// replicasConsistent waits for every replica of item to converge to
// the same value and returns it.
func (c *cluster) replicasConsistent(item ident.ItemID, deadline time.Duration) core.Value {
	c.t.Helper()
	end := time.Now().Add(deadline)
	for {
		c.net.Quiesce()
		v0 := c.sites[0].Value(item)
		same := true
		for _, s := range c.sites[1:] {
			if s.Value(item) != v0 {
				same = false
				break
			}
		}
		if same {
			return v0
		}
		if time.Now().After(end) {
			for _, s := range c.sites {
				c.t.Logf("site %v: %s = %d", s.ID(), item, s.Value(item))
			}
			c.t.Fatal("replicas did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func reserveTxn(item ident.ItemID, m core.Value) *txn.Txn {
	return &txn.Txn{Ops: []txn.ItemOp{{Item: item, Op: core.Decr{M: m}}}}
}

func TestCommitReplicatesEverywhere(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Seed: 1, MaxDelay: time.Millisecond})
	c.createItem("flight/A", 100)
	res := c.sites[0].Run(reserveTxn("flight/A", 10))
	if !res.Committed() {
		t.Fatalf("commit: %v", res.Status)
	}
	if v := c.replicasConsistent("flight/A", time.Second); v != 90 {
		t.Errorf("replicas = %d, want 90", v)
	}
}

func TestBoundedDecrementAborts(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Seed: 2})
	c.createItem("flight/A", 5)
	res := c.sites[1].Run(reserveTxn("flight/A", 10))
	if res.Committed() {
		t.Fatal("over-reserve committed")
	}
	if v := c.replicasConsistent("flight/A", time.Second); v != 5 {
		t.Errorf("replicas = %d, want 5 (abort must not change values)", v)
	}
}

func TestReadOnlyLocal(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Seed: 3})
	c.createItem("flight/A", 42)
	res := c.sites[2].Run(&txn.Txn{Reads: []ident.ItemID{"flight/A"}})
	if !res.Committed() {
		t.Fatalf("read: %v", res.Status)
	}
	if res.Reads["flight/A"] != 42 {
		t.Errorf("read = %d", res.Reads["flight/A"])
	}
}

func TestSequentialTransactionsFromAllSites(t *testing.T) {
	c := newCluster(t, 4, simnet.Config{Seed: 4, MaxDelay: time.Millisecond})
	c.createItem("flight/A", 100)
	total := core.Value(100)
	for i := 0; i < 12; i++ {
		s := c.sites[i%4]
		res := s.Run(reserveTxn("flight/A", 5))
		if res.Committed() {
			total -= 5
		}
		// Let phase-2 traffic settle to keep the test deterministic.
		c.net.Quiesce()
	}
	if v := c.replicasConsistent("flight/A", 2*time.Second); v != total {
		t.Errorf("replicas = %d, want %d", v, total)
	}
}

func TestWritesBlockedDuringPartition(t *testing.T) {
	c := newCluster(t, 4, simnet.Config{Seed: 5})
	c.createItem("flight/A", 100)
	c.net.Partition([]ident.SiteID{1, 2}, []ident.SiteID{3, 4})
	// Write-all is impossible: the transaction must abort (after its
	// bounded timeouts) — availability is zero for writes.
	res := c.sites[0].Run(reserveTxn("flight/A", 1))
	if res.Committed() {
		t.Fatal("write committed during partition (write-all broken)")
	}
	c.net.Heal()
	// After heal the abort decisions propagate and locks clear.
	time.Sleep(50 * time.Millisecond)
	res2 := c.sites[0].Run(reserveTxn("flight/A", 1))
	if !res2.Committed() {
		t.Errorf("post-heal write: %v", res2.Status)
	}
}

func TestInDoubtParticipantBlocksThenResolves(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Seed: 6})
	c.createItem("flight/A", 100)

	// Drop exactly the votes: participants receive prepare, force-
	// write their prepare records, and wait in doubt for a decision
	// the coordinator (which timed out and presumed abort) keeps
	// trying to deliver — which we also drop.
	c.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool {
		return kind != wire.KVote && kind != wire.KDecision
	})
	res := c.sites[0].Run(reserveTxn("flight/A", 10))
	if res.Committed() {
		t.Fatal("commit without votes")
	}
	// Participants 2,3 are in doubt, holding X locks on flight/A.
	time.Sleep(20 * time.Millisecond)
	st2 := c.sites[1].Stats()
	if st2.InDoubtNow == 0 {
		t.Error("participant 2 should be in doubt")
	}
	// A transaction at site 2 touching the same item cannot proceed.
	res2 := c.sites[1].Run(reserveTxn("flight/A", 1))
	if res2.Committed() {
		t.Error("txn committed against an in-doubt lock")
	}
	// Heal: the coordinator's presumed-abort answers the re-sent
	// votes; the in-doubt window closes and blocked time is recorded.
	c.net.SetFilter(nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := c.sites[1].Stats()
		if st.InDoubtNow == 0 && st.BlockedTime > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt never resolved: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the item is writable again everywhere.
	res3 := c.sites[1].Run(reserveTxn("flight/A", 1))
	if !res3.Committed() {
		t.Errorf("post-resolution txn: %v", res3.Status)
	}
}

func TestCoordinatorCrashRecoveryResolvesInDoubt(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Seed: 7})
	c.createItem("flight/A", 100)

	// Votes and decisions dropped: participants prepare and stay in
	// doubt; coordinator decides abort (vote timeout) and logs it —
	// then crashes before its retransmissions land.
	c.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool {
		return kind != wire.KVote && kind != wire.KDecision
	})
	res := c.sites[0].Run(reserveTxn("flight/A", 10))
	if res.Committed() {
		t.Fatal("commit without votes")
	}
	c.sites[0].Crash()
	c.net.SetFilter(nil)
	time.Sleep(30 * time.Millisecond)
	// Still in doubt: the coordinator is down.
	if st := c.sites[1].Stats(); st.InDoubtNow == 0 {
		t.Error("participant should still be in doubt while coordinator is down")
	}
	// Coordinator restarts; termination protocol (vote resend →
	// decision from log) resolves the participants.
	if err := c.sites[0].Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := c.sites[1].Stats(); st.InDoubtNow == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-doubt never resolved after coordinator recovery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := c.replicasConsistent("flight/A", time.Second); v != 100 {
		t.Errorf("replicas = %d, want 100 (aborted txn)", v)
	}
}

func TestParticipantCrashReentersInDoubt(t *testing.T) {
	c := newCluster(t, 2, simnet.Config{Seed: 8})
	c.createItem("flight/A", 50)
	// Participant 2 prepares, then its vote (and the abort decision)
	// are lost; it crashes while in doubt. After restart it must
	// re-enter in-doubt from its log (locks re-acquired), then
	// resolve via the termination protocol.
	c.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool {
		return kind != wire.KVote && kind != wire.KDecision
	})
	res := c.sites[0].Run(reserveTxn("flight/A", 10))
	if res.Committed() {
		t.Fatal("commit without vote")
	}
	c.sites[1].Crash()
	if err := c.sites[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if st := c.sites[1].Stats(); st.InDoubtNow == 0 {
		t.Error("recovered participant should re-enter in-doubt")
	}
	c.net.SetFilter(nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := c.sites[1].Stats(); st.InDoubtNow == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered in-doubt never resolved")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := c.replicasConsistent("flight/A", time.Second); v != 50 {
		t.Errorf("replicas = %d, want 50", v)
	}
}

func TestConflictingCoordinatorsDontDeadlockForever(t *testing.T) {
	c := newCluster(t, 2, simnet.Config{Seed: 9, MaxDelay: time.Millisecond})
	c.createItem("a", 100)
	c.createItem("b", 100)
	// Opposite lock orders from two coordinators: classic distributed
	// deadlock, resolved by lock timeouts. Both must return.
	done := make(chan *txn.Result, 2)
	mk := func(first, second ident.ItemID) *txn.Txn {
		return &txn.Txn{Ops: []txn.ItemOp{
			{Item: first, Op: core.Decr{M: 1}},
			{Item: second, Op: core.Decr{M: 1}},
		}}
	}
	go func() { done <- c.sites[0].Run(mk("a", "b")) }()
	go func() { done <- c.sites[1].Run(mk("b", "a")) }()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("coordinator hung — deadlock not resolved")
		}
	}
}

// A coordinator whose decision record does not reach its log has not
// committed: it must not report the transaction committed, and no
// participant may be told to commit it. The participants learn of an
// abort instead and leave their replicas as they were.
func TestUnloggedDecisionIsNotACommit(t *testing.T) {
	coordLog := wal.NewMemLog()
	coordLog.SetAppendHook(func(r wal.Record) error {
		if r.Kind == wal.RecDecision {
			return errors.New("decision device failed")
		}
		return nil
	})
	c := newClusterOnLogs(t, simnet.Config{Seed: 10, MaxDelay: time.Millisecond},
		[]wal.Log{coordLog, wal.NewMemLog(), wal.NewMemLog()})
	c.createItem("flight/A", 100)

	if res := c.sites[0].Run(reserveTxn("flight/A", 10)); res.Committed() {
		t.Fatal("coordinator reported a commit whose decision record was never logged")
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, s := range c.sites[1:] {
		for s.Stats().InDoubtNow != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("participant %v never learned the outcome", s.ID())
			}
			time.Sleep(2 * time.Millisecond)
		}
		if v := s.Value("flight/A"); v != 100 {
			t.Errorf("participant %v holds %d, want 100: it was told to commit", s.ID(), v)
		}
	}
}

// A restart rebuilds the replicas from the log alone, into an emptied
// store: the placement, then every committed write set in the order it
// was applied. An item that only ever goes 0 → 5 → 0 replays without
// error only if each decrement comes after the increment it needs.
func TestRestartReplaysWriteSetsInLogOrder(t *testing.T) {
	c := newCluster(t, 2, simnet.Config{Seed: 9})
	c.createItem("x", 0)
	for i := 0; i < 10; i++ {
		for _, op := range []core.Op{core.Incr{M: 5}, core.Decr{M: 5}} {
			if res := c.sites[0].Run(&txn.Txn{Ops: []txn.ItemOp{{Item: "x", Op: op}}}); !res.Committed() {
				t.Fatalf("round %d, %v: %v", i, op, res.Status)
			}
		}
	}
	c.createItem("y", 3)
	c.replicasConsistent("x", time.Second)
	s := c.sites[1]
	s.DB().ApplyAll(1<<40, []wal.Action{{Item: "x", Delta: 9}}) // what the log does not say
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if x, y := s.Value("x"), s.Value("y"); x != 0 || y != 3 {
		t.Errorf("after restart x = %d, y = %d, want 0 and 3", x, y)
	}
}

// The termination protocol reads the coordinator's decision from its
// log, and a log it cannot read answers nothing: not a decision record
// that does not decode, and not a scan that fails. The in-doubt
// participant that asked stays in doubt — its vote is re-sent — rather
// than hear "presumed abort" of a transaction that may have committed.
func TestDecisionFromAnUnreadableLog(t *testing.T) {
	coordLog := wal.NewMemLog()
	c := newClusterOnLogs(t, simnet.Config{Seed: 11}, []wal.Log{coordLog, wal.NewMemLog()})
	var decisions atomic.Int64
	c.net.SetTap(func(from, _ ident.SiteID, kind wire.Kind, _ []byte) {
		if from == 1 && kind == wire.KDecision {
			decisions.Add(1)
		}
	})
	coord, ts := c.sites[0], tstamp.Make(5, 1)
	if _, err := coordLog.Append(wal.RecDecision, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := coord.decisionFromLog(ts); err == nil {
		t.Errorf("a decision record that does not decode read as found=%v", found)
	}
	coord.onVote(2, &wire.Vote{Txn: ts, Yes: true})
	c.net.Quiesce()
	if n := decisions.Load(); n != 0 {
		t.Errorf("coordinator answered %d decision(s) from a log it could not read", n)
	}

	coordLog.Close()
	if _, found, err := coord.decisionFromLog(ts); err == nil {
		t.Errorf("a failed scan read as found=%v", found)
	}
}
