package site

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// Checkpoint's cut needs no lock of its own: every enqueue+apply pair
// runs under its items' stripes, and Checkpoint takes them all. Each
// round races checkpoints against site 1's commits, Vm creates (a
// grant and a proactive transfer) and a commit that accepts a grant,
// twice: once with site 1's flush held, so that the cut lands across
// six records enqueued and applied but not forced, and once
// free-running, with a checkpoint started beside the writers. A last
// cut is taken while a credit is held on a waiting transaction: it is
// in neither the cut's store nor its channels. Once everything is
// forced, a rebuild from the compacted log alone must equal the live
// store, item by item, under both schemes.
func TestCheckpointCutAcrossHeldFlushes(t *testing.T) {
	for _, scheme := range []cc.Scheme{cc.Conc1, cc.Conc2} {
		t.Run(scheme.String(), func(t *testing.T) {
			gl := wal.NewGroupLog(wal.NewMemLog(), wal.GroupCommitOptions{})
			t.Cleanup(func() { gl.Close() })
			tc := newTestCluster(t, 2, simnet.Config{Seed: 35}, func(i int, c *Config) {
				c.CC = cc.New(scheme)
				if i == 0 {
					c.Log = gl
				}
			})
			const rounds = 3
			// Every item is placed, by a logged record, before the
			// first checkpoint.
			for _, item := range []ident.ItemID{"c0", "c1", "c2", "t"} {
				tc.createItem(item, 200)
			}
			tc.createItem("h1", 20)
			tc.createItem("h2", 20)
			for r := 0; r < rounds; r++ {
				for _, phase := range []string{"held", "free"} {
					tc.createItem(ident.ItemID(fmt.Sprintf("g-%s-%d", phase, r)), 20)
					tc.createItem(ident.ItemID(fmt.Sprintf("r-%s-%d", phase, r)), 20)
				}
			}
			s := tc.sites[0]

			var lastCut uint64
			for r := 0; r < rounds; r++ {
				// Held: the first flush parks until the cut is enqueued
				// behind every writer's record.
				entered, release := holdFirstFlush(gl)
				t.Cleanup(release)
				writers := burst(t, tc, fmt.Sprintf("held-%d", r))
				<-entered
				waitUntil(t, 5*time.Second, "six records enqueued, none forced", func() bool { return gl.Waiters() >= 6 })
				cut := make(chan error, 1)
				go func() { cut <- s.Checkpoint() }()
				waitUntil(t, 5*time.Second, "checkpoint record enqueued", func() bool { return gl.Waiters() >= 7 })
				release()
				writers.Wait()
				if err := <-cut; err != nil {
					t.Fatalf("round %d: checkpoint across held flushes: %v", r, err)
				}
				lastCut = checkRebuild(t, tc, gl, lastCut)

				// Free: a checkpoint started beside the writers.
				gl.SetFlushHook(nil)
				writers = burst(t, tc, fmt.Sprintf("free-%d", r))
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("round %d: checkpoint beside the writers: %v", r, err)
				}
				writers.Wait()
				lastCut = checkRebuild(t, tc, gl, lastCut)
			}
			cutWhileHeld(t, tc, gl, lastCut)
		})
	}
}

// cutWhileHeld parks a transaction at site 1 that is short by 2 on each
// of h1 and h2, with its own requests lost, and has site 2 grant it h1's
// 2: that credit is held. A checkpoint now must leave it out — the
// store's h1 is site 1's own 10 and the channel from site 2 does not
// list the seq — and rebuild from the compacted log to the live store.
// A grant of h2's 2 then lets the transaction commit, accepting both,
// and a rebuild from a later cut still equals live.
func cutWhileHeld(t *testing.T, tc *testCluster, gl *wal.GroupLog, lastCut uint64) {
	t.Helper()
	s := tc.sites[0]
	tc.net.SetFilter(func(_, _ ident.SiteID, kind wire.Kind) bool { return kind != wire.KRequest })
	defer tc.net.SetFilter(nil)
	done := make(chan *txn.Result, 1)
	go func() {
		done <- s.Run(&txn.Txn{
			Ops: []txn.ItemOp{
				{Item: "h1", Op: core.Decr{M: 12}},
				{Item: "h2", Op: core.Decr{M: 12}},
			},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		})
	}()
	waitUntil(t, 2*time.Second, "the transaction parked", func() bool { return parkedWaiters(s) == 1 })
	var w *waiter
	peekItem(s, "h1", func(st *itemState) { w = st.waiter })
	grant := func(item ident.ItemID) {
		tc.sites[1].handle(&wire.Envelope{From: 1, To: 2, Msg: &wire.Request{Txn: w.ts, Item: item, Want: 2}})
	}
	grant("h1")
	waitUntil(t, 2*time.Second, "h1's grant held", func() bool { return w.acceptedCount() == 1 })
	seq := tc.sites[1].VM().OutSeq(1)

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint while a credit is held: %v", err)
	}
	var cp *wal.CheckpointRec
	if err := gl.Scan(0, func(r wal.Record) error {
		if r.Kind == wal.RecCheckpoint {
			var err error
			cp, err = wal.DecodeCheckpoint(r.Data)
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, ch := range cp.Channels {
		if ch.Peer == 2 && (seq <= ch.InLow || slices.Contains(ch.InAbove, seq)) {
			t.Errorf("the cut's channel from site 2 accepts the held seq %d (low %d, above %v)", seq, ch.InLow, ch.InAbove)
		}
	}
	for _, it := range cp.Items {
		if it.Item == "h1" && it.Value != 10 {
			t.Errorf("the cut's store holds h1 = %d, want site 1's own 10", it.Value)
		}
	}
	lastCut = checkRebuild(t, tc, gl, lastCut)

	grant("h2")
	if res := <-done; !res.Committed() || res.VmAccepted != 2 {
		t.Fatalf("the transaction holding the credit: %v with %d accepted, want committed with 2", res.Status, res.VmAccepted)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkRebuild(t, tc, gl, lastCut)
	for _, item := range []ident.ItemID{"h1", "h2"} {
		if v := s.DB().Value(item); v != 0 {
			t.Errorf("%s = %d after the commit, want 10 + 2 − 12", item, v)
		}
	}
}

// burst starts, each on its own goroutine, every kind of durable write
// site 1 makes: three commits, a proactive transfer, a grant to site 2
// (which commits on it) and a commit that accepts site 2's grant — six
// records in site 1's log.
func burst(t *testing.T, tc *testCluster, tag string) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	run := func(s *Site, x *txn.Txn) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := s.Run(x); !res.Committed() {
				t.Errorf("%s: %v on %s", tag, res.Status, x.Ops[0].Item)
			}
		}()
	}
	short := func(item string) *txn.Txn { // 10 held per site: short by 2
		return &txn.Txn{
			Ops:     []txn.ItemOp{{Item: ident.ItemID(item + "-" + tag), Op: core.Decr{M: 12}}},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		}
	}
	for _, item := range []ident.ItemID{"c0", "c1", "c2"} {
		run(tc.sites[0], reserve(item, 1))
	}
	run(tc.sites[1], short("g"))
	run(tc.sites[0], short("r"))
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := tc.sites[0].SendValue("t", 2, 1); err != nil {
			t.Errorf("%s: transfer: %v", tag, err)
		}
	}()
	return &wg
}

// checkRebuild drains site 1 and checks that its compacted log alone
// rebuilds the live store — every item's value — from a checkpoint
// newer than after. It returns that checkpoint's LSN.
func checkRebuild(t *testing.T, tc *testCluster, gl *wal.GroupLog, after uint64) uint64 {
	t.Helper()
	tc.settle()
	waitUntil(t, 5*time.Second, "site 1's log drained", func() bool { return gl.Waiters() == 0 })
	s := tc.sites[0]
	db, _, sum, err := recovery.Rebuild(gl, s.ID())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if sum.CheckpointLSN <= after {
		t.Fatalf("rebuild started from checkpoint %d, want one after %d", sum.CheckpointLSN, after)
	}
	live, rebuilt := s.DB().Snapshot(), db.Snapshot()
	if len(live) != len(rebuilt) {
		t.Fatalf("rebuilt %d items, live store has %d", len(rebuilt), len(live))
	}
	for i, it := range live {
		if got := rebuilt[i]; got.Item != it.Item || got.Value != it.Value {
			t.Errorf("%s: rebuilt %d, live %d", it.Item, got.Value, it.Value)
		}
	}
	return sum.CheckpointLSN
}
