package site

import (
	"slices"
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
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// A transaction is answered on its own record's force and no other: a
// Vm parked behind its lock and redelivered by its release is credited
// at enqueue, but its acceptance record asks for no force, and Run
// returns Committed while that record is still unforced. Every flush
// that starts after the commit is reported is held, so a Run that
// waited for the redelivered acceptance would never return.
func TestRedeliveryDoesNotHoldTheAnswer(t *testing.T) {
	var committed atomic.Bool
	tc, gl := groupedCluster(t, 36, func(c *Config) {
		c.OnCommit = func(CommitInfo) { committed.Store(true) }
	})
	item := ident.ItemID("flight/H")
	tc.createItem(item, 20) // 10 per site
	s := tc.sites[0]
	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	defer release()
	gl.SetFlushHook(func(int) {
		if committed.Load() {
			<-gate
		}
	})

	// T needs 5 from site 2. Its grant stays off the wire until a
	// foreign Vm has parked behind T's lock; the retransmission brings
	// it back.
	tc.net.SetFilter(func(_, _ ident.SiteID, kind wire.Kind) bool { return kind != wire.KVm })
	done := make(chan *txn.Result, 1)
	go func() {
		done <- s.Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		})
	}()
	waitUntil(t, 2*time.Second, "T parked on its item", func() bool { return parkedWaiters(s) == 1 })
	// An unsolicited credit — no ReqTxn — is not T's to consume: it parks.
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 100, Item: item, Amount: 1}})
	if n := parkedOn(s, item); n != 1 {
		t.Fatalf("%d Vm parked behind T's lock, want 1", n)
	}
	tc.net.SetFilter(nil)

	var res *txn.Result
	select {
	case res = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("T's answer is waiting for the force of the Vm its release redelivered")
	}
	if !res.Committed() {
		t.Fatalf("T: %v, want committed", res.Status)
	}
	if v := s.DB().Value(item); v != 1 {
		t.Errorf("store = %d, want 1: 10 + 5 − 15, and the redelivered 1 credited at enqueue", v)
	}
	if n := gl.Waiters(); n != 1 {
		t.Errorf("%d records unforced after T's answer, want the redelivered acceptance", n)
	}
	if n := s.Stats().VmAccepted; n != 1 {
		t.Errorf("VmAccepted = %d with the redelivered acceptance unforced, want 1", n)
	}

	release()
	waitUntil(t, 2*time.Second, "the redelivered acceptance settled", func() bool { return s.Stats().VmAccepted == 2 })
}

// The requester's log pays one force per shortfall transaction, not
// one per record. Each transaction at site 1 is short by one and asks
// both peers, so it accepts two grants: the first wakes it and rides
// its commit's force, the second rides the next transaction's. N
// serial transactions cost site 1 at most N + 2 flushes, where a force
// per acceptance would cost about 2N. Site 1's memory log forces at the
// pace of one device (500 µs a force), so that a force started for one
// record does not also catch the commit behind it by luck, and it has
// no retransmission tick to speak of: only the transactions ask.
func TestShortfallForceBudget(t *testing.T) {
	const n = 20
	reg := obs.NewRegistry()
	tc := newTestCluster(t, 3, simnet.Config{Seed: 37}, func(i int, c *Config) {
		if i == 0 {
			c.Log = wal.NewSlowDevice(c.Log.(wal.Device), 500*time.Microsecond)
			c.Metrics = reg
			c.RetransmitEvery = time.Hour
		}
	})
	item := ident.ItemID("flight/S")
	for i, q := range []core.Value{1, 1000, 1000} {
		if err := tc.sites[i].DB().Create(item, q); err != nil {
			t.Fatal(err)
		}
	}
	s := tc.sites[0]
	for i := 0; i < n; i++ {
		res := s.Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 2}}},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		})
		if !res.Committed() {
			t.Fatalf("transaction %d: %v", i, res.Status)
		}
		// 1 + 1 + 1 − 2: the second grant is credited (its record
		// enqueued, not forced) before the next transaction draws a
		// timestamp, so Conc1 never sees that credit's stamp ahead of it.
		waitUntil(t, 2*time.Second, "the second grant credited", func() bool { return s.DB().Value(item) == 1 })
	}
	if f := reg.SumCounters("dvp_wal_group_flushes_total"); f > n+2 {
		t.Errorf("%d shortfall transactions cost the requester %d flushes, want at most %d", n, f, n+2)
	}
	if acc := s.Stats().VmAccepted; acc < n {
		t.Errorf("VmAccepted = %d after %d shortfall commits, want at least %d", acc, n, n)
	}
}

// A crash loses what nobody forced, as a process kill does: the three
// acceptances credited at enqueue, with no force asked for them, are
// not in the log once Crash returns, and the crash's flight event
// counts them. Restart rebuilds the store the log holds, and the
// sender's retransmitted copies are each credited once; a fourth copy
// is a counted duplicate.
func TestCrashDropsUnforcedAccepts(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0)) // no tick: nobody asks for a force
	flight := obs.NewFlight(64)
	tc, gl := groupedCluster(t, 38, func(c *Config) {
		c.Clock = clock
		c.Flight = flight
	})
	item := ident.ItemID("flight/K")
	tc.createItem(item, 20) // 10 per site
	s := tc.sites[0]
	vm := func(seq uint64) *wire.Envelope {
		return &wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: seq, Item: item, Amount: 2}}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		s.handle(vm(seq))
	}
	if n := gl.Waiters(); n != 3 {
		t.Fatalf("%d records queued, want the 3 acceptances, unforced", n)
	}

	s.Crash()
	if n := gl.Waiters(); n != 0 {
		t.Errorf("%d records still queued after Crash", n)
	}
	if recs := countRecords(t, gl, 1); recs[wal.RecVmAccept] != 0 {
		t.Fatalf("stable log holds %d acceptance records after Crash, want none", recs[wal.RecVmAccept])
	}
	if ev := flight.Last(64); !slices.ContainsFunc(ev, func(e *obs.FlightEvent) bool {
		return e.Kind == "site-down" && strings.Contains(e.Detail, "unforced_dropped=3")
	}) {
		t.Errorf("no site-down event reports the 3 dropped records: %v", ev)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if v := s.DB().Value(item); v != 10 {
		t.Errorf("store after restart = %d, want 10: no credit reached the log", v)
	}
	if got := s.VM().AckFor(2); got != 0 {
		t.Errorf("AckFor after restart = %d, want 0", got)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		s.handle(vm(seq))
	}
	if v := s.DB().Value(item); v != 16 {
		t.Errorf("store after the retransmissions = %d, want 16: 10 + 3 × 2, each credited once", v)
	}
	dups := s.Stats().VmDuplicates
	s.handle(vm(2))
	if got := s.Stats().VmDuplicates; got != dups+1 {
		t.Errorf("a fourth copy: duplicates %d → %d, want one more", dups, got)
	}
	if v := s.DB().Value(item); v != 16 {
		t.Errorf("store = %d after the fourth copy, want 16", v)
	}
}
