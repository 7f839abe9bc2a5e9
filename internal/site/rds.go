package site

import (
	"fmt"
	"sync"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/tstamp"
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
	return s.sendValue(item, peer, amount, false)
}

// sendValue is SendValue, or with rebal the rebalancer's transfer,
// which a pause seen under lifeMu's read side refuses.
func (s *Site) sendValue(item ident.ItemID, peer ident.SiteID, amount core.Value, rebal bool) error {
	if amount <= 0 {
		return fmt.Errorf("site %v: non-positive transfer %d", s.cfg.ID, amount)
	}
	if peer == s.cfg.ID {
		return fmt.Errorf("site %v: self transfer", s.cfg.ID)
	}
	// Lock order: lifeMu.RLock ≺ stripe. The lifeMu fence keeps the
	// append and its force inside the site's lifetime, like the commit
	// path: once Crash returns, no rds record can still reach the log.
	// Vm parked behind our lock are redelivered once it is let go, after
	// the fence (redelivery takes it again).
	var parked []deferredVm
	defer func() { s.redeliver(parked) }()
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.Up() {
		return fmt.Errorf("site %v: down", s.cfg.ID)
	}
	if rebal && s.rebalPaused.Load() {
		return fmt.Errorf("site %v: rebalancer paused", s.cfg.ID)
	}

	// Rds transactions are transactions: they draw a timestamp and
	// take the lock like anyone else (§6 treats them uniformly).
	ts, err := s.draw()
	if err != nil {
		return fmt.Errorf("site %v: clock reservation: %w", s.cfg.ID, err)
	}

	// A proactive transfer is its own causal root: it gets an "rds"
	// span stitched by its own TS, and the Vm it creates carries the
	// context so the receiving site's vm-accept (and our vm-ack)
	// parent onto it.
	var hop *obs.TxnTrace
	var hopSpan uint64
	if s.obsm.ring != nil {
		hopSpan = s.newSpan()
		hop = s.obsm.ring.BeginSpan(s.cfg.Clock.Now(), s.obsm.site, "rds", s.obsm.site, uint64(ts), hopSpan, 0)
	}
	outcome := "aborted"
	defer func() { s.endHop(hop, outcome) }()
	stripe, st := s.lockItem(item)
	if !s.policy.AllowLock(ts, s.stampOf(st)) {
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
	// The lock is taken as the stripe is let go (nobody could see it
	// sooner) and held through the force and the dispatch: an Rds
	// queued on the stripe behind this one aborts no-wait instead of
	// shipping again from its caller's stale snapshot — a caller racing
	// the rebalancer would otherwise double-ship. A Vm that parks behind
	// it is taken back with the lock, as on the commit path. Still this
	// transaction's when released: Crash's sweep waits out lifeMu.
	defer func() {
		stripe.Lock()
		parked = releaseItems(ts.Txn(), []*itemState{st})
		stripe.Unlock()
	}()
	v := wal.VmOut{To: peer, Item: item, Amount: amount}
	if hopSpan != 0 {
		v.Trace = wire.TraceCtx{Origin: s.cfg.ID, TS: ts, Span: hopSpan}
	}
	applied, err := s.createVm(stripe, st, ts, ts.Txn(), &v, hop)
	if !applied {
		stripe.Unlock()
		return fmt.Errorf("site %v: rds log append: %w", s.cfg.ID, err)
	}
	if err != nil {
		outcome = "fail-stop"
		return fmt.Errorf("site %v: rds log force: %w", s.cfg.ID, err)
	}
	outcome = "sent"
	return nil
}

// createVm is the part of every Vm creation past its admission check —
// a request honored (handleRequest) or a proactive transfer
// (SendValue): an Rds transaction acting at this site (§6), whose lock
// is the stripe hold it runs in. It stamps the item at ts under a
// StampOnLock scheme (the deduct is reported at the item's stamp),
// takes the Vm's sequence number and builds the [database-actions,
// message-sequence] record — *v, which names destination, item, amount,
// ReqTxn and trace context, gains the sequence number and the item's
// flow vector — then enqueues and applies it: from here the Vm is
// outstanding, so a full read declines. holder, unless NoTxn, takes the
// item's no-wait lock as the stripe is let go. Only once the record is
// stable is the Vm real (§4.2): it enters the retransmission set, is
// reported and sent.
//
// The caller holds lifeMu's read side and the item's stripe. applied
// reports whether the record was enqueued and applied: if not, err is
// the log's or the store's error and the stripe is still held; if so,
// the stripe is released and err is the force's (the site is stopping).
func (s *Site) createVm(stripe *sync.Mutex, st *itemState, ts tstamp.TS, holder ident.TxnID, v *wal.VmOut, hop *obs.TxnTrace) (applied bool, err error) {
	cur := s.stampOf(st)
	if s.policy.StampOnLock() {
		st.ts, cur = ts, ts
	}
	v.Seq = s.vm.AllocSeq(v.To)
	v.FlowVec = st.flow.Entries()
	rec := &wal.VmCreateRec{
		Actions: []wal.Action{{Item: v.Item, Delta: -v.Amount, SetTS: cur}},
		Msgs:    []wal.VmOut{*v},
	}
	d, err := s.enqueueApply(wal.RecVmCreate, rec.EncodeTo, rec.Actions,
		func() { s.vm.CreateEnqueued(rec.Msgs) })
	if err != nil {
		return false, err
	}
	st.holder = holder
	stripe.Unlock()
	s.stepHop(hop, "apply", "")
	if err := s.waitForce(&d); err != nil {
		return true, err
	}
	s.vm.CreateStable(rec.Msgs)
	if hop != nil {
		hop.Step(s.cfg.Clock.Now(), "wal-flush", fmt.Sprintf("lsn=%d amount=%d seq=%d", d.lsn, v.Amount, v.Seq))
	}
	s.reportRds(cur, v.Item, -v.Amount)
	s.obsm.forPeer(v.To).vmCreated.Inc()
	if s.Up() { // after a crash has begun, recovery resends it from the log
		s.sendVm(*v)
	}
	s.settleAccepts(d.lsn, nil) // what the force carried beside the grant
	return true, nil
}
