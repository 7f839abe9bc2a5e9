package site

import (
	"math/bits"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// This file is the admission + durability layer: the per-item stripes
// (the only lock for state mutation), the scheme's admission check,
// and the three durable mutation entry points — commitLocked,
// vmCreateLocked, vmAcceptLocked — that every path shares. Run
// (exec.go), the message handlers (inbound_*.go) and proactive Rds
// (rds.go) all funnel through here; none of them touches the log or
// store any other way.
//
// All three take one form. Under the item's stripe and ckptMu's read
// side the record is enqueued — its LSN is final — and applied at that
// LSN; the caller does its volatile bookkeeping and lets go of the
// no-wait locks and the stripe. Then, still under lifeMu's read side,
// it waits for the record's durability, and only after that does
// anything leave the site: a reply, a hook, a Vm, an ack. No stripe is
// held across a force, so whoever queues on the item next enqueues
// behind this record and shares or follows its force instead of
// waiting it out. Whatever reads the early value logs behind it, the
// log is stable in LSN order, and a force that fails stops the site
// (failStop): nothing built on an unforced record can get out.

// stripeOf maps an item to its admission stripe (FNV-1a).
func (s *Site) stripeOf(item ident.ItemID) int {
	if len(s.stripes) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(item); i++ {
		h ^= uint32(item[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.stripes)))
}

// lockAllStripes takes every stripe in ascending order (Checkpoint's
// whole-site quiescent point) and returns the release.
func (s *Site) lockAllStripes() func() {
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
	return func() {
		for i := range s.stripes {
			s.stripes[i].Unlock()
		}
	}
}

// admissionStripes shards the admission/message-handling critical
// section by data item, so transactions on disjoint items run the
// check+lock+stamp path concurrently; everything touching one item
// still serializes on that item's stripe. At most 64: a transaction's
// stripe set is one machine word. Conc2 runs on a single stripe — its
// §6.2 correctness argument needs whole-site arrival-order processing,
// not merely per-item order.
const admissionStripes = 16

// stripeMask returns the set of stripes covering items, one bit each.
func (s *Site) stripeMask(items []ident.ItemID) uint64 {
	var mask uint64
	for _, item := range items {
		mask |= 1 << uint(s.stripeOf(item))
	}
	return mask
}

// lockStripes / unlockStripes acquire and release a stripe set in
// ascending index order — the deadlock-free total order.
func (s *Site) lockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].Lock()
	}
}

func (s *Site) unlockStripes(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].Unlock()
	}
}

// admitVerdict is admitLocked's decision.
type admitVerdict int

const (
	admitOK admitVerdict = iota
	// admitCCRejected: some item's timestamp fails the scheme's
	// AllowLock test — a CC abort.
	admitCCRejected
	// admitShort: every item passes the scheme, but some item's
	// authoritative quota is below its need — the transaction must
	// redistribute before it can commit.
	admitShort
)

// admitLocked runs the admission check over items under their held
// stripes: the scheme's per-item AllowLock test and the local-adequacy
// test against needs (parallel to items). One DB.Get per item serves
// both. Caller holds every item's stripe; the stripes exclude all
// mutators of these items, so the values cannot move between check and
// the caller's lock+stamp. A CC rejection on any item outranks a
// shortfall on another.
func (s *Site) admitLocked(ts tstamp.TS, items []ident.ItemID, needs []core.Value) admitVerdict {
	verdict := admitOK
	for i, item := range items {
		it, _ := s.cfg.DB.Get(item)
		if !s.policy.AllowLock(ts, it.TS) {
			return admitCCRejected
		}
		if it.Val < needs[i] {
			verdict = admitShort
		}
	}
	return verdict
}

// lockAndStamp takes the transaction's no-wait locks (sts are the
// states of items, in order) and, under a StampOnLock scheme (Conc1),
// stamps the items — §5 step 1's lock+stamp half. Caller holds the
// items' stripes.
func (s *Site) lockAndStamp(ts tstamp.TS, items []ident.ItemID, sts []*itemState) bool {
	if !tryLockItems(ts.Txn(), sts) {
		return false
	}
	if s.policy.StampOnLock() {
		for _, item := range items {
			s.cfg.DB.SetTS(item, ts)
		}
	}
	return true
}

// logEnqueue is the site-internal append path: it places a record in
// the stable log's queue and feeds the automatic checkpointer's growth
// threshold. All normal-processing records (commit, Vm create/accept)
// go through it; Checkpoint itself appends directly so a checkpoint
// record never re-arms the trigger it just cleared.
func (s *Site) logEnqueue(kind wal.RecordKind, data []byte) (uint64, error) {
	lsn, err := s.cfg.Log.Enqueue(kind, data)
	if err == nil {
		s.noteAppend()
	}
	return lsn, err
}

// commitLocked is §5 steps 5 and 6 up to the force: enqueue the commit
// record (its stability will commit the transaction) and apply its
// actions at the LSN it reserved. One record and one force per commit
// — the store's per-item applied LSN already makes redo idempotent, so
// there is no separate "applied" record to write (logs from before
// that was dropped still carry them; recovery skips them). The record
// encodes into a pooled wire buffer, which the log borrows until the
// record's WaitDurable returns: the caller waits, then hands w back to
// the pool (it is nil on error). The caller must hold lifeMu's read
// side — from here through that wait (crash atomicity: once Crash
// returns, no stale-epoch commit record can still reach the log, and
// nothing applied is missing from it) — and the stripes covering every
// action's item (the store's page-LSN idempotence needs same-item
// records applied in LSN order, which is enqueue order only while the
// stripe is held across enqueue+apply). ckptMu's read side is taken
// here, keeping the enqueue+apply pair atomic against Checkpoint's
// cut; it is not held across the wait, which the cut does not need —
// a checkpoint record enqueued later is stable only after this one. The
// actions slice is borrowed for the call — Run passes stack scratch.
func (s *Site) commitLocked(ts tstamp.TS, actions []wal.Action) (uint64, *wire.Writer, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	w := wire.GetWriter()
	rec := wal.CommitRec{Txn: ts, Actions: actions}
	rec.EncodeTo(w)
	lsn, err := s.logEnqueue(wal.RecCommit, w.Bytes())
	if err != nil {
		wire.PutWriter(w)
		return 0, nil, err
	}
	if _, err := s.cfg.DB.ApplyAll(lsn, actions); err != nil {
		// Protocol invariant broken, with the record already in the
		// log's queue: stop rather than run on beside it. The log keeps
		// borrowing w until the record is forced or dropped, so it is
		// not pooled again.
		s.failStop("commit-apply", err)
		return 0, nil, err
	}
	return lsn, w, nil
}

// vmCreateLocked is the under-the-stripe half of every Vm creation — a
// request honored (inbound_request.go) or a proactive Rds transfer
// (rds.go): enqueue the [database-actions, message-sequence] record,
// register the outgoing Vm as enqueued (outstanding, not sendable) and
// apply the deduct at that LSN. The caller releases the stripe, then
// makes the Vm real with vmCreateStable. Caller holds lifeMu's read
// side and the item's stripe.
func (s *Site) vmCreateLocked(rec *wal.VmCreateRec) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	lsn, err := s.logEnqueue(wal.RecVmCreate, rec.Encode())
	if err != nil {
		return 0, err
	}
	s.vm.CreateEnqueued(rec.Msgs)
	if _, err := s.cfg.DB.ApplyAll(lsn, rec.Actions); err != nil {
		s.failStop("create-apply", err)
		return 0, err
	}
	return lsn, nil
}

// vmCreateStable is the after-the-force half of a Vm creation: wait
// for the create record vmCreateLocked enqueued at lsn, then move its
// Vm into the retransmission set — they exist from here on (§4.2) and
// the caller sends them. If the force fails the deduct stays in a
// store that is now ahead of its log, and nothing is sent: the site
// stops. Caller holds lifeMu's read side, and no stripe.
func (s *Site) vmCreateStable(lsn uint64, rec *wal.VmCreateRec) error {
	if err := s.cfg.Log.WaitDurable(lsn); err != nil {
		s.failStop("create-force", err)
		return err
	}
	s.vm.CreateStable(rec.Msgs)
	return nil
}

// vmAcceptLocked is the under-the-stripe half of Vm acceptance: the
// acceptance record takes its place in the log (the record is the
// acceptance), the channel's dedup set is marked and the credit is
// applied at that LSN. A record with actions is only enqueued — its
// LSN is final, so the credit can land now and the caller waits for
// the force after releasing the stripe (settleAccepts), acknowledging
// nothing before. A record with nothing to credit gains nothing from
// that and is made stable under the stripe: it is ackable on return.
// Caller holds lifeMu's read side and the item's stripe.
func (s *Site) vmAcceptLocked(from ident.SiteID, rec *wal.VmAcceptRec) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	lsn, err := s.logEnqueue(wal.RecVmAccept, rec.Encode())
	if err != nil {
		return 0, err
	}
	if len(rec.Actions) == 0 {
		if err := s.cfg.Log.WaitDurable(lsn); err != nil {
			return 0, err
		}
		s.vm.MarkAccepted(from, rec.Seq)
		return lsn, nil
	}
	s.vm.MarkApplied(from, rec.Seq)
	if _, err := s.cfg.DB.ApplyAll(lsn, rec.Actions); err != nil {
		// Protocol invariant broken, with the record already in the
		// log's queue: stop rather than run on beside it.
		s.failStop("accept-apply", err)
		return 0, err
	}
	return lsn, nil
}
