package site

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/recovery"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// groupedCluster is a 2-site test cluster and site 1's group log, to
// hold its flush open (SetFlushHook) or fail it (tc.logs[0]'s append
// hook); mutate edits site 1's config.
func groupedCluster(t *testing.T, seed int64, mutate func(c *Config)) (*testCluster, *wal.GroupLog) {
	t.Helper()
	tc := newTestCluster(t, 2, simnet.Config{Seed: seed}, func(i int, c *Config) {
		if i == 0 && mutate != nil {
			mutate(c)
		}
	})
	return tc, tc.sites[0].Log().(*wal.GroupLog)
}

// holdFirstFlush parks the GroupLog's first flush until the returned
// release is called; entered is closed when the flusher gets there.
func holdFirstFlush(gl *wal.GroupLog) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	gate := make(chan struct{})
	var once, open sync.Once
	gl.SetFlushHook(func(int) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	})
	return entered, func() { open.Do(func() { close(gate) }) }
}

// ackTap records the highest Vm sequence any 1→2 envelope has
// acknowledged, explicitly (VmAck) or piggybacked (AckUpTo), and how
// many explicit acks went by.
type ackTap struct {
	covered atomic.Uint64
	vmAcks  atomic.Int64
}

func (a *ackTap) install(t *testing.T, net *simnet.Net) {
	net.SetTap(func(from, to ident.SiteID, kind wire.Kind, frame []byte) {
		if from != 1 || to != 2 {
			return
		}
		env, err := wire.Unmarshal(frame)
		if err != nil {
			t.Errorf("tap: bad frame: %v", err)
			return
		}
		up := env.AckUpTo
		if ack, ok := env.Msg.(*wire.VmAck); ok {
			a.vmAcks.Add(1)
			if ack.UpTo > up {
				up = ack.UpTo
			}
		}
		for {
			cur := a.covered.Load()
			if up <= cur || a.covered.CompareAndSwap(cur, up) {
				return
			}
		}
	})
}

// A value Vm addressed to a waiting transaction is held on it: the
// waiter wakes, and its commit record nets the credit in and lists the
// Vm — the one record in the pipeline, applied at its enqueue, so the
// store shows credit and deduct alike — and the first flush is the one
// the commit asks for. Nothing acknowledges the Vm, explicitly or
// piggybacked, and nothing answers the transaction, until that force
// lands; then the ack goes out and a retransmitted copy is a counted
// duplicate.
func TestVmCreditAtEnqueueAckAtDurability(t *testing.T) {
	tc, gl := groupedCluster(t, 21, nil)
	item := ident.ItemID("flight/A")
	tc.createItem(item, 20) // 10 per site
	var tap ackTap
	tap.install(t, tc.net)
	entered, release := holdFirstFlush(gl)
	defer release()

	// Needs 5 from site 2. Nothing at site 1 asks for a force before the
	// commit does, so the held flush is the commit's, and it carries the
	// acceptance.
	done := make(chan *txn.Result, 1)
	go func() {
		done <- tc.sites[0].Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no flush at site 1: the grant never arrived")
	}

	waitUntil(t, 2*time.Second, "the commit record in the pipeline", func() bool {
		return gl.Waiters() == 1
	})
	if v := tc.sites[0].DB().Value(item); v != 0 {
		t.Fatalf("store = %d before the force, want 0: 10 + 5 credited, 15 committed", v)
	}
	pending := tc.sites[1].VM().PendingTo(1)
	if len(pending) != 1 {
		t.Fatalf("sender's retransmission set toward site 1 = %v, want the one unacknowledged Vm", pending)
	}
	seq := pending[0].Seq
	// Give retransmissions (5 ms) time to come round as duplicates and
	// be answered: those answers must not cover the seq either.
	time.Sleep(25 * time.Millisecond)
	if up := tap.covered.Load(); up >= seq {
		t.Fatalf("an envelope acknowledged up to %d with the acceptance record of seq %d not stable", up, seq)
	}
	if got := tc.sites[0].VM().AckFor(2); got >= seq {
		t.Fatalf("AckFor = %d before the force, want below %d", got, seq)
	}
	if n := tc.sites[1].VM().PendingCount(1); n != 1 {
		t.Fatalf("sender retired the Vm before its acceptance was stable (pending %d)", n)
	}
	select {
	case res := <-done:
		t.Fatalf("transaction returned %v with its commit record unforced", res.Status)
	default:
	}
	if n := tc.sites[0].Stats().VmAccepted; n != 0 {
		t.Fatalf("VmAccepted = %d before the force, want 0", n)
	}

	release()
	if res := <-done; !res.Committed() || res.VmAccepted != 1 {
		t.Fatalf("reserve: %v, %d Vm accepted", res.Status, res.VmAccepted)
	}
	waitUntil(t, 2*time.Second, "ack retires the Vm at the sender", func() bool {
		return tc.sites[1].VM().PendingCount(1) == 0
	})
	if up := tap.covered.Load(); up < seq {
		t.Fatalf("acks covered %d, want %d", up, seq)
	}
	if st := tc.sites[0].Stats(); st.VmAccepted != 1 {
		t.Fatalf("VmAccepted = %d, want 1", st.VmAccepted)
	}
	if got := acceptedBy(t, gl); len(got) != 1 || got[0] != (acceptance{wal.RecCommit, wal.VmRef{From: 2, Seq: seq}}) {
		t.Fatalf("the log accepts %v, want seq %d by the commit record alone", got, seq)
	}

	// No more copies are coming once the sender has retired the Vm and
	// the network has drained; the next one is ours.
	tc.settle()
	dups := tc.sites[0].Stats().VmDuplicates
	tc.sites[0].handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{
		Seq: seq, Item: item, Amount: pending[0].Amount, ReqTxn: pending[0].ReqTxn,
	}})
	if got := tc.sites[0].Stats().VmDuplicates; got != dups+1 {
		t.Fatalf("retransmitted copy: duplicates %d → %d, want one more", dups, got)
	}
	if total := tc.globalTotal(item); total != 5 {
		t.Fatalf("global total = %d, want 5 (20 − 15, credited exactly once)", total)
	}
}

// A VmBatch of 8 value Vm is credited whole at enqueue and asks for no
// force: nothing is forced, counted or acknowledged until somebody asks
// — a commit, or on an idle site the retransmission tick — and then one
// flush carries all 8 and one cumulative ack follows it.
func TestVmBatchAcceptForces(t *testing.T) {
	for _, by := range []string{"commit", "tick"} {
		t.Run(by, func(t *testing.T) {
			clock := vclock.NewVirtual(time.Unix(0, 0))
			tc, gl := groupedCluster(t, 23, func(c *Config) { c.Clock = clock })
			const n = 8
			batch := &wire.VmBatch{Vms: make([]wire.Vm, n)}
			for i := range batch.Vms {
				item := ident.ItemID("it/" + string(rune('a'+i)))
				tc.createItem(item, 0)
				batch.Vms[i] = wire.Vm{Seq: uint64(i + 1), Item: item, Amount: 3}
			}
			tc.createItem("local", 20)
			var forces, carried atomic.Int64
			gl.SetFlushHook(func(n int) {
				forces.Add(1)
				carried.Add(int64(n))
			})
			var tap ackTap
			tap.install(t, tc.net)
			s := tc.sites[0]
			s.handle(&wire.Envelope{From: 2, To: 1, Msg: batch})
			tc.settle()
			for i := range batch.Vms {
				if v := s.DB().Value(batch.Vms[i].Item); v != 3 {
					t.Errorf("%s = %d, want 3: credited at enqueue", batch.Vms[i].Item, v)
				}
			}
			if f, a, acc := forces.Load(), tap.vmAcks.Load(), s.Stats().VmAccepted; f != 0 || a != 0 || acc != 0 {
				t.Fatalf("before anyone asked: %d forces, %d acks, %d accepted; want none", f, a, acc)
			}

			records := int64(n)
			switch by {
			case "commit":
				if res := s.Run(reserve("local", 1)); !res.Committed() {
					t.Fatalf("local commit: %v", res.Status)
				}
				records++
			case "tick":
				waitUntil(t, 2*time.Second, "retransmit loop parked", func() bool { return clock.PendingTimers() == 1 })
				clock.Advance(5 * time.Millisecond)
			}
			waitUntil(t, 2*time.Second, "the batch acknowledged", func() bool { return tap.covered.Load() == n })
			tc.settle()
			if f, c := forces.Load(), carried.Load(); f != 1 || c != records {
				t.Errorf("%d forces carrying %d records, want 1 carrying %d", f, c, records)
			}
			if a := tap.vmAcks.Load(); a != 1 {
				t.Errorf("batch answered with %d acks, want 1", a)
			}
			if st := s.Stats(); st.VmAccepted != n {
				t.Errorf("VmAccepted = %d, want %d", st.VmAccepted, n)
			}
		})
	}
}

// If the force behind an early credit fails — the retransmission tick
// asks for it here, nobody else having done so — the site never acks
// and never un-applies: it counts the stop and stops. It then restarts
// like any other site, into the store its log holds: the credit whose
// record never landed is gone, for the sender to send again.
func TestAcceptForceFailureStopsTheSite(t *testing.T) {
	reg := obs.NewRegistry()
	tc, _ := groupedCluster(t, 24, func(c *Config) { c.Metrics = reg })
	inner := tc.logs[0]
	item := ident.ItemID("flight/C")
	tc.createItem(item, 20)
	var tap ackTap
	tap.install(t, tc.net)
	inner.SetAppendHook(func(wal.Record) error { return errors.New("disk full") })

	s := tc.sites[0]
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 1, Item: item, Amount: 4}})
	select {
	case <-s.FailStopped():
	case <-time.After(2 * time.Second):
		t.Fatal("site kept running after its acceptance record failed to force")
	}
	waitUntil(t, 2*time.Second, "site down", func() bool { return !s.Up() })
	tc.settle()

	if s.FailStopErr() == nil {
		t.Error("FailStopErr = nil after a fail-stop")
	}
	if got := reg.CounterValue("dvp_site_failstop_total", "site", "s1", "reason", "accept-force"); got != 1 {
		t.Errorf("dvp_site_failstop_total{reason=accept-force} = %v, want 1", got)
	}
	if v := s.DB().Value(item); v != 14 {
		t.Errorf("store = %d, want 14: the credit is not un-applied", v)
	}
	if up := tap.covered.Load(); up != 0 {
		t.Errorf("an ack covered seq %d though its acceptance record is not in the log", up)
	}
	if s.VM().AckFor(2) != 0 || s.Stats().VmAccepted != 0 {
		t.Errorf("AckFor = %d, VmAccepted = %d, want 0 and 0", s.VM().AckFor(2), s.Stats().VmAccepted)
	}
	inner.SetAppendHook(nil)
	if err := s.Restart(); err != nil {
		t.Fatalf("restart after a fail-stop: %v", err)
	}
	rebuilt, _, _, err := recovery.Rebuild(inner, s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if live := s.DB().Snapshot(); !slices.Equal(live, rebuilt.Snapshot()) {
		t.Errorf("restarted store %v, its log rebuilds %v", live, rebuilt.Snapshot())
	}
	if v := s.DB().Value(item); v != 10 {
		t.Errorf("store after restart = %d, want site 1's own 10", v)
	}
}

// An action that fails to apply on the commit or the Vm-create path —
// the record is in the log, the store refuses it — stops the site
// through failStop: counted by reason, FailStopped closed, an error to
// the caller, no panic.
func TestApplyFailureStopsTheSite(t *testing.T) {
	overdraw := []wal.Action{{Item: "x", Delta: -100}}
	cases := []struct {
		reason string
		entry  func(s *Site) error
	}{
		{"commit-apply", func(s *Site) error {
			rec := wal.CommitRec{Txn: s.lamport.Next(), Actions: overdraw}
			_, err := s.enqueueApply(wal.RecCommit, rec.EncodeTo, overdraw, nil)
			return err
		}},
		{"create-apply", func(s *Site) error {
			rec := &wal.VmCreateRec{
				Actions: overdraw,
				Msgs:    []wal.VmOut{{To: 2, Seq: 1, Item: "x", Amount: 100}},
			}
			_, err := s.enqueueApply(wal.RecVmCreate, rec.EncodeTo, overdraw,
				func() { s.vm.CreateEnqueued(rec.Msgs) })
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.reason, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc := newTestCluster(t, 2, simnet.Config{Seed: 27}, func(i int, cfg *Config) { cfg.Metrics = reg })
			tc.createItem("x", 20)
			s := tc.sites[0]

			// As every caller does: lifeMu's read side and the item's stripe.
			s.lifeMu.RLock()
			stripe, _ := s.lockItem("x")
			err := c.entry(s)
			stripe.Unlock()
			s.lifeMu.RUnlock()

			if err == nil {
				t.Fatal("overdrawing action applied without error")
			}
			select {
			case <-s.FailStopped():
			case <-time.After(2 * time.Second):
				t.Fatal("site kept running beside a record it could not apply")
			}
			waitUntil(t, 2*time.Second, "site down", func() bool { return !s.Up() })
			if s.FailStopErr() == nil {
				t.Error("FailStopErr = nil after a fail-stop")
			}
			if got := reg.CounterValue("dvp_site_failstop_total", "site", "s1", "reason", c.reason); got != 1 {
				t.Errorf("dvp_site_failstop_total{reason=%s} = %v, want 1", c.reason, got)
			}
			if v := s.DB().Value("x"); v != 10 {
				t.Errorf("store = %d, want 10: nothing applied", v)
			}
		})
	}
}

// A checkpointed restart acknowledges exactly what the log holds: the
// checkpoint's channel state restores the dedup set and the ackable
// cursor alike.
func TestCheckpointedRestartRestoresAckCursor(t *testing.T) {
	tc, _ := groupedCluster(t, 25, nil)
	item := ident.ItemID("flight/D")
	tc.createItem(item, 20)
	s := tc.sites[0]
	for seq := uint64(1); seq <= 3; seq++ {
		s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: seq, Item: item, Amount: 1}})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 4, Item: item, Amount: 1}})
	s.forceAccepts()
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := s.VM().AckFor(2); got != 4 {
		t.Errorf("AckFor after restart = %d, want 4 (3 from the checkpoint, 1 replayed)", got)
	}
	if s.VM().ShouldAccept(2, 4) || !s.VM().ShouldAccept(2, 5) {
		t.Error("dedup set after restart does not match the log")
	}
}

// A crash landing between a commit's enqueue and its force waits the
// force out (the commit holds lifeMu across the force it asked for), so
// what the store was credited and debited — the commit nets in the grant
// it consumed — is never missing from the log recovery reads.
func TestCrashInsideUnforcedAccept(t *testing.T) {
	tc, gl := groupedCluster(t, 26, nil)
	inner := tc.logs[0]
	item := ident.ItemID("flight/E")
	tc.createItem(item, 20)
	entered, release := holdFirstFlush(gl)
	defer release()

	s := tc.sites[0]
	done := make(chan *txn.Result, 1)
	go func() {
		done <- s.Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no flush at site 1: the grant never arrived")
	}
	waitUntil(t, 2*time.Second, "the commit record queued", func() bool {
		return gl.Waiters() == 1
	})
	if v := s.DB().Value(item); v != 0 {
		t.Fatalf("store = %d before the force, want 0: credit and commit both applied", v)
	}

	crashed := make(chan struct{})
	go func() {
		s.Crash()
		close(crashed)
	}()
	waitUntil(t, 2*time.Second, "site marked down", func() bool { return !s.Up() })
	select {
	case <-crashed:
		t.Fatal("Crash returned with a credited commit record still unforced")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-crashed
	res := <-done

	// Its record was in the queue before the crash, so the transaction
	// committed: the force the crash waited out made it stable.
	if !res.Committed() {
		t.Fatalf("transaction %v, want committed: its record was enqueued before the crash", res.Status)
	}
	if got := acceptedBy(t, inner); len(got) != 1 || got[0].kind != wal.RecCommit {
		t.Fatalf("stable log accepts %v after the crash, want the one grant, by the commit record", got)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := s.VM().AckFor(2); got != 1 {
		t.Errorf("AckFor after restart = %d, want 1", got)
	}
	tc.waitQuiescent(item, 2*time.Second)
	if total := tc.globalTotal(item); total != 5 {
		t.Errorf("global total = %d, want 5 (20 − 15)", total)
	}
}

// acceptance is one Vm a log record accepts, and the record's kind.
type acceptance struct {
	kind wal.RecordKind
	ref  wal.VmRef
}

// acceptedBy lists every Vm the log's stable records accept, in order.
func acceptedBy(t *testing.T, log wal.Log) []acceptance {
	t.Helper()
	var out []acceptance
	if err := log.Scan(0, func(r wal.Record) error {
		refs, err := wal.Accepted(r)
		for _, ref := range refs {
			out = append(out, acceptance{r.Kind, ref})
		}
		return err
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}
