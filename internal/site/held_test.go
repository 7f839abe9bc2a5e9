package site

import (
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// parkShort starts a transaction at site 1 that needs 14 of item, of
// which site 1 holds 10, with every request lost, and waits until it is
// parked. grant has site 2 honour a request for want on its behalf: the
// Vm goes out and, addressed to the waiter, is held on it.
func parkShort(t *testing.T, tc *testCluster, item ident.ItemID, timeout time.Duration) (w *waiter, done <-chan *txn.Result, grant func(want core.Value)) {
	t.Helper()
	s := tc.sites[0]
	tc.net.SetFilter(func(_, _ ident.SiteID, kind wire.Kind) bool { return kind != wire.KRequest })
	ch := make(chan *txn.Result, 1)
	go func() {
		ch <- s.Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 14}}},
			Ask:     txn.AskAll,
			Timeout: timeout,
		})
	}()
	waitUntil(t, 2*time.Second, "the transaction parked", func() bool { return parkedWaiters(s) == 1 })
	peekItem(s, item, func(st *itemState) { w = st.waiter })
	return w, ch, func(want core.Value) {
		tc.sites[1].handle(&wire.Envelope{From: 1, To: 2, Msg: &wire.Request{Txn: w.ts, Item: item, Want: want}})
	}
}

// A crash while a credit is held leaves nothing of it behind: not in
// the store, not in the log, not on the channel. The sender still has
// the Vm pending, retransmits it after the restart, and it is accepted
// exactly once, into the now-free item; value is conserved throughout.
func TestCrashWhileHeldDropsTheCredit(t *testing.T) {
	tc := newTestCluster(t, 2, simnet.Config{Seed: 41}, nil)
	item := ident.ItemID("held/A")
	tc.createItem(item, 20) // 10 per site
	s := tc.sites[0]
	w, done, grant := parkShort(t, tc, item, 5*time.Second)
	grant(2)
	waitUntil(t, 2*time.Second, "the grant held", func() bool { return w.acceptedCount() == 1 })
	seq := tc.sites[1].VM().OutSeq(1)

	untouched := func(when string) {
		t.Helper()
		if v := s.DB().Value(item); v != 10 {
			t.Errorf("%s: store = %d, want site 1's own 10", when, v)
		}
		if got := acceptedBy(t, tc.logs[0]); len(got) != 0 {
			t.Errorf("%s: the log accepts %v", when, got)
		}
		if !s.VM().ShouldAccept(2, seq) || s.VM().AckFor(2) >= seq {
			t.Errorf("%s: the channel from site 2 knows seq %d (ack %d)", when, seq, s.VM().AckFor(2))
		}
	}
	untouched("held")
	s.Crash()
	if res := <-done; res.Status != txn.StatusSiteDown {
		t.Fatalf("transaction: %v, want %v", res.Status, txn.StatusSiteDown)
	}
	untouched("after the crash")

	tc.net.SetFilter(nil)
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "the retransmitted Vm acknowledged", func() bool {
		return tc.sites[1].VM().PendingCount(1) == 0
	})
	if v := s.DB().Value(item); v != 12 {
		t.Errorf("store = %d after the restart, want 12: the grant accepted once", v)
	}
	if got := acceptedBy(t, tc.logs[0]); len(got) != 1 || got[0] != (acceptance{wal.RecVmAccept, wal.VmRef{From: 2, Seq: seq}}) {
		t.Errorf("the log accepts %v, want seq %d once, by an acceptance record", got, seq)
	}
	dups := s.Stats().VmDuplicates
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: seq, Item: item, Amount: 2}})
	if got := s.Stats().VmDuplicates; got != dups+1 || s.DB().Value(item) != 12 {
		t.Errorf("another copy: duplicates %d → %d, store %d; want one more duplicate and 12", dups, got, s.DB().Value(item))
	}
	if total := tc.globalTotal(item); total != 20 {
		t.Errorf("global total = %d, want 20", total)
	}
}

// A transaction that times out holding a credit degenerates to an Rds
// transaction (§6): nothing of the credit is logged or applied while it
// is held, and the exit writes its own acceptance record, credited at
// enqueue, and asks for its force. The ack is due before the
// transaction returns, with no retransmission tick (an hour away here):
// the sender holds the Vm outstanding until then, and would decline a
// retried full read of the item for it.
func TestTimeoutLogsHeldCredit(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	tc, gl := groupedCluster(t, 42, wal.NewMemLog(), func(c *Config) {
		c.Clock = clock
		c.RetransmitEvery = time.Hour
	})
	var tap ackTap
	tap.install(t, tc.net)
	item := ident.ItemID("held/B")
	tc.createItem(item, 20)
	s := tc.sites[0]
	w, done, grant := parkShort(t, tc, item, 10*time.Millisecond)
	grant(2)
	waitUntil(t, 2*time.Second, "the grant held", func() bool { return w.acceptedCount() == 1 })
	seq := tc.sites[1].VM().OutSeq(1)
	if v, n := s.DB().Value(item), gl.Waiters(); v != 10 || n != 0 {
		t.Fatalf("held: store = %d with %d records queued, want 10 and none", v, n)
	}

	waitUntil(t, 2*time.Second, "timeout and tick armed", func() bool { return clock.PendingTimers() == 2 })
	clock.Advance(10 * time.Millisecond)
	if res := <-done; res.Status != txn.StatusTimeout {
		t.Fatalf("transaction: %v, want %v", res.Status, txn.StatusTimeout)
	}
	if v := s.DB().Value(item); v != 12 {
		t.Errorf("store = %d after the timeout, want 12: the held credit stays", v)
	}
	if n := gl.Waiters(); n != 0 {
		t.Errorf("%d records queued after the timeout, want none: the exit forces its acceptance", n)
	}
	if ack := s.VM().AckFor(2); ack < seq {
		t.Errorf("AckFor(2) = %d when the transaction returned, want %d: the exit acks what it forced", ack, seq)
	}
	waitUntil(t, 2*time.Second, "the acceptance acknowledged", func() bool { return tap.covered.Load() >= seq })
	if got := acceptedBy(t, gl); len(got) != 1 || got[0] != (acceptance{wal.RecVmAccept, wal.VmRef{From: 2, Seq: seq}}) {
		t.Errorf("the log accepts %v, want seq %d by one acceptance record", got, seq)
	}
	if n := s.Stats().VmAccepted; n != 1 {
		t.Errorf("VmAccepted = %d, want 1", n)
	}
}

// A copy of a Vm already held is a duplicate that earns no ack: its
// acceptance is whichever record the waiter's exit writes. Once the
// commit record is enqueued, copies of what it accepts owe an ack, but
// none covers them until the commit's force lands. (Conc2, so that site
// 2 may honour a second request at the same timestamp.)
func TestHeldDuplicateEarnsNoAck(t *testing.T) {
	gl := wal.NewGroupLog(wal.NewMemLog(), wal.GroupCommitOptions{})
	t.Cleanup(func() { gl.Close() })
	tc := newTestCluster(t, 2, simnet.Config{Seed: 43}, func(i int, c *Config) {
		c.CC = cc.New(cc.Conc2)
		if i == 0 {
			c.Log = gl
		}
	})
	var tap ackTap
	tap.install(t, tc.net)
	item := ident.ItemID("held/C")
	tc.createItem(item, 20)
	s := tc.sites[0]
	w, done, grant := parkShort(t, tc, item, 5*time.Second)
	grant(2)
	waitUntil(t, 2*time.Second, "the first grant held", func() bool { return w.acceptedCount() == 1 })
	first := tc.sites[1].VM().OutSeq(1)

	dups := s.Stats().VmDuplicates
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: first, Item: item, Amount: 2, ReqTxn: w.ts}})
	if got := s.Stats().VmDuplicates; got != dups+1 {
		t.Errorf("a copy of the held Vm: duplicates %d → %d, want one more", dups, got)
	}
	tc.settle()
	if n, a := w.acceptedCount(), tap.vmAcks.Load(); n != 1 || a != 0 {
		t.Fatalf("after copies of the held Vm: %d held, %d acks sent; want 1 and none", n, a)
	}
	if v := s.DB().Value(item); v != 10 {
		t.Errorf("store = %d with the credit held, want 10", v)
	}

	entered, release := holdFirstFlush(gl)
	defer release()
	grant(2)
	<-entered
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: first, Item: item, Amount: 2, ReqTxn: w.ts}})
	tc.settle()
	if up := tap.covered.Load(); up >= first {
		t.Fatalf("an ack covered %d with the commit record accepting it unforced", up)
	}
	release()
	if res := <-done; !res.Committed() || res.VmAccepted != 2 {
		t.Fatalf("transaction: %v with %d accepted, want committed with 2", res.Status, res.VmAccepted)
	}
	waitUntil(t, 2*time.Second, "both grants acknowledged", func() bool { return tc.sites[1].VM().PendingCount(1) == 0 })
	got := acceptedBy(t, gl)
	if len(got) != 2 || got[0].kind != wal.RecCommit || got[1].kind != wal.RecCommit {
		t.Errorf("the log accepts %v, want both grants by the commit record", got)
	}
}

// logCounter tallies the forces of one site's log, and the forces that
// started while a stripe of the site was held across them.
type logCounter struct {
	gl        *wal.GroupLog
	reg       *obs.Registry
	forces    atomic.Int64
	underLock atomic.Int64
}

// forcedBy reads the log's forces per runner: the flusher goroutine, or
// a committer inside WaitDurable.
func (c *logCounter) forcedBy() (flusher, committer int64) {
	return int64(c.reg.CounterValue("dvp_wal_group_flushes_total", "by", "flusher")),
		int64(c.reg.CounterValue("dvp_wal_group_flushes_total", "by", "committer"))
}

// TestCountBudgetPerOpKind pins, for each kind of operation, the
// records, forces and log bytes (payload, mean per op) it costs at the
// site that runs it and at each donor. Three sites log through
// GroupLog(MemLog) and run one operation at a time at site 1:
//
//   - a local write: one commit record and one force at site 1, nothing
//     anywhere else;
//   - a shortfall write, needing a grant from each donor: each donor
//     logs and forces its create, and site 1's one commit record
//     accepts both grants;
//   - a full read, one donor holding nothing: the donor that holds some
//     logs and forces its create, the other answers NoShare and logs
//     nothing, site 1 logs one commit record accepting the grant, and
//     no force at site 1 starts with one of its stripes held;
//   - a full read of an item site 1 holds all of: both donors answer
//     NoShare, and nobody logs or forces anything — the wire carries
//     the two requests and the two answers, and nothing else;
//   - a Lamport draw that crosses the clock's reservation: one
//     reservation record and one force at site 1; a draw below it costs
//     nothing.
//
// No site ever logs a Vm with nothing to carry, and each log names
// every item once (namedOnce): the items are placed first, so every
// record counted refers to its item by ordinal. The byte ceilings are
// the measured sizes plus one byte, room for a timestamp's varint to
// grow and none for a field per action. Each op kind's forces, split by
// who ran them (the flusher or a committer), add up to its budget;
// which of the two runs a force is the log's measured choice, and on a
// memory log under the race detector the two costs are too close for
// the split itself to be pinned.
func TestCountBudgetPerOpKind(t *testing.T) {
	counters := make([]*logCounter, 3)
	tc := newTestCluster(t, 3, simnet.Config{Seed: 44}, func(i int, c *Config) {
		gl := wal.NewGroupLog(wal.NewMemLog(), wal.GroupCommitOptions{})
		t.Cleanup(func() { gl.Close() })
		counters[i] = &logCounter{gl: gl, reg: obs.NewRegistry()}
		gl.Instrument(counters[i].reg)
		c.Log = gl
		c.DefaultTimeout = 5 * time.Second
	})
	s := tc.sites[0]
	tap := new(kindTap)
	tap.install(tc.net)
	for i := 1; i < 3; i++ {
		c := counters[i]
		c.gl.SetFlushHook(func(int) { c.forces.Add(1) })
	}
	// A stripe held across a force stays held until the flush ends, and
	// the flush is parked in this hook: one free moment of each stripe
	// clears it.
	c1 := counters[0]
	c1.gl.SetFlushHook(func(int) {
		c1.forces.Add(1)
		for i := range s.stripes {
			deadline := time.Now().Add(200 * time.Millisecond)
			for !s.stripes[i].TryLock() {
				if time.Now().After(deadline) {
					c1.underLock.Add(1)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			s.stripes[i].Unlock()
		}
	})

	type cost struct{ records, forces, bytes int64 }
	measure := func(op func(i int)) (per [3]cost) {
		const n = 5
		type mark struct{ lsn, forces, flusher, committer int64 }
		var before [3]mark
		for k, c := range counters {
			f, cm := c.forcedBy()
			before[k] = mark{int64(c.gl.LastLSN()), c.forces.Load(), f, cm}
		}
		for i := 0; i < n; i++ {
			op(i)
			waitUntil(t, 2*time.Second, "the channels drained", func() bool {
				for _, x := range tc.sites {
					if len(x.VM().PendingAll()) != 0 {
						return false
					}
				}
				return true
			})
		}
		for k, c := range counters {
			var bytes int64
			if err := c.gl.Scan(uint64(before[k].lsn)+1, func(r wal.Record) error {
				bytes += int64(len(r.Data))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			recs := int64(c.gl.LastLSN()) - before[k].lsn
			if recs%n != 0 || (c.forces.Load()-before[k].forces)%n != 0 {
				t.Errorf("site %d: %d records, %d forces over %d operations: not the same for each", k+1, recs, c.forces.Load()-before[k].forces, n)
			}
			f, cm := c.forcedBy()
			f, cm = f-before[k].flusher, cm-before[k].committer
			if f+cm != c.forces.Load()-before[k].forces {
				t.Errorf("site %d: %d forces by the flusher and %d by committers, but the hook saw %d", k+1, f, cm, c.forces.Load()-before[k].forces)
			}
			per[k] = cost{recs / n, (c.forces.Load() - before[k].forces) / n, (bytes + n - 1) / n}
		}
		return per
	}
	check := func(kind string, got [3]cost, want [3]cost) {
		t.Helper()
		for k := range got {
			if got[k].records != want[k].records || got[k].forces != want[k].forces || got[k].bytes > want[k].bytes {
				t.Errorf("%s at site %d: %d records, %d forces, %d B of log per op; want %d, %d, at most %d B",
					kind, k+1, got[k].records, got[k].forces, got[k].bytes, want[k].records, want[k].forces, want[k].bytes)
			}
		}
	}

	// Every item is placed, so each site's log has named it before the
	// operations are counted.
	for k, q := range []core.Value{1000, 0, 0} {
		place(t, tc.sites[k], "local", q)
	}
	check("local write", measure(func(int) {
		if res := s.Run(reserve("local", 1)); !res.Committed() {
			t.Fatalf("local write: %v", res.Status)
		}
	}), [3]cost{{1, 1, 6}, {}, {}})

	item := func(kind string, i int) ident.ItemID { return ident.ItemID(kind + "/" + string(rune('a'+i))) }
	for i := 0; i < 5; i++ {
		for k, q := range []core.Value{0, 1, 1} {
			place(t, tc.sites[k], item("short", i), q)
		}
		for k, q := range []core.Value{10, 10, 0} {
			place(t, tc.sites[k], item("read", i), q)
		}
		for k, q := range []core.Value{20, 0, 0} {
			place(t, tc.sites[k], item("all", i), q)
		}
	}
	check("shortfall write", measure(func(i int) {
		res := s.Run(&txn.Txn{Ops: []txn.ItemOp{{Item: item("short", i), Op: core.Decr{M: 2}}}, Ask: txn.AskAll})
		if !res.Committed() || res.VmAccepted != 2 {
			t.Fatalf("shortfall write: %v with %d accepted", res.Status, res.VmAccepted)
		}
	}), [3]cost{{1, 1, 9}, {1, 1, 11}, {1, 1, 11}})

	check("full read", measure(func(i int) {
		res := s.Run(readItem(item("read", i)))
		if !res.Committed() || res.Reads[item("read", i)] != 20 {
			t.Fatalf("full read: %v, read %d", res.Status, res.Reads[item("read", i)])
		}
	}), [3]cost{{1, 1, 9}, {1, 1, 11}, {}})
	if n := counters[0].underLock.Load(); n != 0 {
		t.Errorf("%d forces at site 1 started with a stripe held across them", n)
	}

	var sent [3][wire.KNoShare + 1]int64
	for k := range sent {
		for kind := range sent[k] {
			sent[k][kind] = tap.sent(ident.SiteID(k+1), wire.Kind(kind))
		}
	}
	check("zero-share full read", measure(func(i int) {
		res := s.Run(readItem(item("all", i)))
		if !res.Committed() || res.Reads[item("all", i)] != 20 {
			t.Fatalf("zero-share full read: %v, read %d", res.Status, res.Reads[item("all", i)])
		}
	}), [3]cost{{}, {}, {}})
	tc.settle()
	for k := range sent {
		for kind := range sent[k] {
			want := int64(0)
			switch {
			case k == 0 && wire.Kind(kind) == wire.KRequest:
				want = 2 * 5
			case k > 0 && wire.Kind(kind) == wire.KNoShare:
				want = 5
			}
			if got := tap.sent(ident.SiteID(k+1), wire.Kind(kind)) - sent[k][kind]; got != want {
				t.Errorf("zero-share full reads: site %d sent %d %v envelopes over 5 reads, want %d", k+1, got, wire.Kind(kind), want)
			}
		}
	}

	draw := func(cross bool) func(int) {
		return func(int) {
			if cross {
				s.lamport.Restore(s.lamport.Bound())
			}
			s.lifeMu.RLock()
			_, err := s.draw()
			s.lifeMu.RUnlock()
			if err != nil {
				t.Fatalf("draw: %v", err)
			}
		}
	}
	check("draw crossing the reservation", measure(draw(true)), [3]cost{{1, 1, 4}, {}, {}})
	check("draw below the reservation", measure(draw(false)), [3]cost{{}, {}, {}})

	for k, c := range counters {
		noEmptyVm(t, ident.SiteID(k+1), c.gl)
		namedOnce(t, ident.SiteID(k+1), c.gl)
	}
}

// noEmptyVm fails the test if log holds a Vm with nothing to carry: a
// full read's donor that holds none of the item answers NoShare, and
// every other Vm carries what was asked for or offered.
func noEmptyVm(t *testing.T, site ident.SiteID, log wal.Log) {
	t.Helper()
	var names wal.Names
	if err := log.Scan(1, func(r wal.Record) error {
		switch r.Kind {
		case wal.RecName:
			_, err := names.DecodeName(r.Data)
			return err
		case wal.RecCheckpoint:
			_, err := names.DecodeCheckpoint(r.Data)
			return err
		case wal.RecVmCreate:
		default:
			return nil
		}
		rec, err := names.DecodeVmCreate(r.Data)
		if err != nil {
			return err
		}
		for _, v := range rec.Msgs {
			if v.Amount <= 0 {
				t.Errorf("site %v logged Vm %d to %v carrying %d of %s at LSN %d", site, v.Seq, v.To, v.Amount, v.Item, r.LSN)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// namedOnce fails the test unless log names each item once: a RecName
// gives an item no ordinal has named an ordinal no record has defined,
// and from there on no record spells the item out — an action and a
// checkpoint item refer to it by that ordinal — and none refers to an
// ordinal not defined before it (a decode error). A checkpoint item
// restates its ordinal, and defines it in a log compacted up to it.
func namedOnce(t *testing.T, site ident.SiteID, log wal.Log) {
	t.Helper()
	var names wal.Names
	ords := make(map[ident.ItemID]uint64)
	ref := func(lsn, ord uint64, item ident.ItemID) {
		if have, ok := ords[item]; ok && ord != have {
			t.Errorf("site %v LSN %d refers to %q as %d, which ordinal %d names", site, lsn, item, ord, have)
		}
	}
	actions := func(lsn uint64, as []wal.Action) {
		for _, a := range as {
			ref(lsn, a.Ord, a.Item)
		}
	}
	if err := log.Scan(1, func(r wal.Record) error {
		switch r.Kind {
		case wal.RecName:
			rec, err := names.DecodeName(r.Data)
			if err != nil {
				return err
			}
			if have, ok := ords[rec.Item]; ok {
				t.Errorf("site %v LSN %d names %q again, as %d: ordinal %d names it", site, r.LSN, rec.Item, rec.Ord, have)
			}
			ords[rec.Item] = rec.Ord
		case wal.RecCommit:
			rec, err := names.DecodeCommit(r.Data)
			if err != nil {
				return err
			}
			actions(r.LSN, rec.Actions)
		case wal.RecVmCreate:
			rec, err := names.DecodeVmCreate(r.Data)
			if err != nil {
				return err
			}
			actions(r.LSN, rec.Actions)
		case wal.RecVmAccept:
			rec, err := names.DecodeVmAccept(r.Data)
			if err != nil {
				return err
			}
			actions(r.LSN, rec.Actions)
		case wal.RecCheckpoint:
			rec, err := names.DecodeCheckpoint(r.Data)
			if err != nil {
				return err
			}
			for _, it := range rec.Items {
				ref(r.LSN, it.Ord, it.Item)
				if _, ok := ords[it.Item]; !ok && it.Ord != 0 {
					ords[it.Item] = it.Ord
				}
			}
		}
		return nil
	}); err != nil {
		t.Errorf("site %v: %v", site, err)
	}
}
