package site

import (
	"fmt"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// SendValue runs a redistribution-only (Rds) transaction (§5): move
// amount of item from this site's quota to peer, without changing the
// item's value. It follows the §5 Rds recipe — lock local item, log
// the [database-actions, message-sequence] record, dispatch, release —
// and "there is no need for the transaction to await replies": the Vm
// machinery guarantees eventual delivery.
//
// Returns an error if the site is down, the item is locked (no-wait),
// or local quota is insufficient. The demand rebalancer (demand.go) is
// built on this (paper §8: "performance studies to find the best ways
// to distribute the data ... are needed").
func (s *Site) SendValue(item ident.ItemID, peer ident.SiteID, amount core.Value) error {
	if amount <= 0 {
		return fmt.Errorf("site %v: non-positive transfer %d", s.cfg.ID, amount)
	}
	if peer == s.cfg.ID {
		return fmt.Errorf("site %v: self transfer", s.cfg.ID)
	}
	epoch, up := s.currentEpoch()
	if !up {
		return fmt.Errorf("site %v: down", s.cfg.ID)
	}

	// Rds transactions are transactions: they draw a timestamp and
	// take the lock like anyone else (§6 treats them uniformly).
	ts := s.lamport.Next()

	// A proactive transfer is its own causal root: it gets an "rds"
	// span stitched by its own TS, and the Vm it creates carries the
	// context so the receiving site's vm-accept (and our vm-ack)
	// parent onto it.
	var hop *obs.TxnTrace
	var hopSpan uint64
	if s.obsm.ring != nil {
		hopSpan = s.newSpan()
		hop = s.obsm.ring.BeginSpan(s.obsm.site, "rds", s.obsm.site, uint64(ts), hopSpan, 0)
	}
	outcome := "aborted"
	defer func() { hop.Finish(outcome) }()

	// Lock order: lifeMu.RLock ≺ stripe ≺ ckptMu.RLock. The lifeMu
	// fence keeps the append and its force inside the site's lifetime,
	// like the commit path: once Crash returns, no rds record can still
	// reach the log. Vm parked behind our lock are redelivered once it
	// is let go, after the fence (redelivery takes it again).
	var parked []deferredVm
	defer func() { s.redeliver(parked) }()
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.sameEpoch(epoch) {
		return fmt.Errorf("site %v: down", s.cfg.ID)
	}
	stripe, st := s.lockItem(item)
	it, _ := s.cfg.DB.Get(item)
	if !s.policy.AllowLock(ts, it.TS) {
		stripe.Unlock()
		return fmt.Errorf("site %v: cc rejected rds on %q", s.cfg.ID, item)
	}
	if st.holder != ident.NoTxn {
		stripe.Unlock()
		return fmt.Errorf("site %v: %q locked", s.cfg.ID, item)
	}
	if have := s.cfg.DB.Value(item); have < amount {
		stripe.Unlock()
		return fmt.Errorf("site %v: quota %d < transfer %d", s.cfg.ID, have, amount)
	}
	if s.policy.StampOnLock() {
		s.cfg.DB.SetTS(item, ts)
	}
	stamp := it.TS
	if s.policy.StampOnLock() {
		stamp = ts
	}
	seq := s.vm.AllocSeq(peer)
	rec := &wal.VmCreateRec{
		Actions: []wal.Action{{Item: item, Delta: -amount, SetTS: stamp}},
		Msgs: []wal.VmOut{{
			To: peer, Seq: seq, Item: item, Amount: amount, ReqTxn: 0,
			FlowVec: st.flow.Entries(),
		}},
	}
	if hopSpan != 0 {
		rec.Msgs[0].Trace = wire.TraceCtx{Origin: s.cfg.ID, TS: ts, Span: hopSpan}
	}
	lsn, err := s.vmCreateLocked(rec)
	if err != nil {
		stripe.Unlock()
		return fmt.Errorf("site %v: rds log append: %w", s.cfg.ID, err)
	}
	// The lock is taken as the stripe is let go (nobody could see it
	// sooner) and held through the force and the dispatch: an Rds
	// queued on the stripe behind this one aborts no-wait instead of
	// shipping again from its caller's stale snapshot — a caller racing
	// the rebalancer would otherwise double-ship. A Vm that parks
	// behind it is taken back with the lock, as on the commit path.
	// Still this transaction's when released: Crash's sweep waits out
	// lifeMu.
	st.holder = ts.Txn()
	stripe.Unlock()
	hop.Step("apply", "")
	defer func() {
		stripe.Lock()
		parked = releaseItems(ts.Txn(), []*itemState{st})
		stripe.Unlock()
	}()
	if err := s.vmCreateStable(lsn, rec); err != nil {
		outcome = "fail-stop"
		return fmt.Errorf("site %v: rds log force: %w", s.cfg.ID, err)
	}
	if hop != nil {
		hop.Step("wal-flush", fmt.Sprintf("lsn=%d amount=%d seq=%d", lsn, amount, seq))
	}
	outcome = "sent"

	s.reportRds(stamp, item, -amount)
	s.obsm.forPeer(peer).vmCreated.Inc()
	if s.sameEpoch(epoch) {
		s.sendVm(rec.Msgs[0])
	}
	return nil
}
