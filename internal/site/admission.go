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
// and the three durable mutation entry points — commitDurably,
// vmCreateDurably, vmAcceptLocked — that every path shares. Run
// (exec.go), the message handlers (inbound_*.go) and proactive Rds
// (rds.go) all funnel through here; none of them touches the log or
// store any other way.

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

// logAppend is the site-internal append path: it writes to the stable
// log and feeds the automatic checkpointer's growth thresholds. All
// normal-processing appends (commit, Vm create/accept) go through it;
// Checkpoint itself appends directly so a checkpoint record never
// re-arms the trigger it just cleared.
func (s *Site) logAppend(kind wal.RecordKind, data []byte) (uint64, error) {
	lsn, err := s.cfg.Log.Append(kind, data)
	if err == nil {
		s.noteAppend()
	}
	return lsn, err
}

// commitDurably is §5 steps 5 and 6: append the commit record (its
// stability commits the transaction), then apply its actions. One
// record and one force per commit — the store's per-item applied LSN
// already makes redo idempotent, so there is no separate "applied"
// record to write (logs from before that was dropped still carry
// them; recovery skips them). The record encodes into a pooled wire
// buffer; the Log contract (data borrowed, never retained) lets the
// buffer return to the pool immediately. The caller must hold
// lifeMu's read side (crash atomicity: once Crash returns, no
// stale-epoch commit record can still reach the log) and the stripes
// covering every action's item (the store's page-LSN idempotence
// needs same-item records applied in LSN order; group commit wakes a
// whole batch of appenders at once, so without the stripes a
// lower-LSN commit could apply after a higher-LSN Vm record on the
// same item and be silently skipped). ckptMu's read side is taken
// here, keeping the append+apply pair atomic against Checkpoint's
// cut. The actions slice is borrowed for the call — Run passes stack
// scratch.
func (s *Site) commitDurably(ts tstamp.TS, actions []wal.Action) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	w := wire.GetWriter()
	rec := wal.CommitRec{Txn: ts, Actions: actions}
	rec.EncodeTo(w)
	lsn, err := s.logAppend(wal.RecCommit, w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		return 0, err
	}
	if _, err := s.cfg.DB.ApplyAll(lsn, actions); err != nil {
		// Protocol invariant broken, with the record already stable:
		// stop rather than run on beside it.
		s.failStop("commit-apply", err)
		return 0, err
	}
	return lsn, nil
}

// vmCreateDurably is the durability half of every Vm creation — a
// request honored (inbound_request.go) or a proactive Rds transfer
// (rds.go): log the [database-actions, message-sequence] record,
// register the outgoing Vm for retransmission, apply the deduct.
// Caller holds lifeMu's read side and the item's stripe.
func (s *Site) vmCreateDurably(rec *wal.VmCreateRec) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	lsn, err := s.logAppend(wal.RecVmCreate, rec.Encode())
	if err != nil {
		return 0, err
	}
	s.vm.Created(rec.Msgs)
	if _, err := s.cfg.DB.ApplyAll(lsn, rec.Actions); err != nil {
		s.failStop("create-apply", err)
		return 0, err
	}
	return lsn, nil
}

// vmAcceptLocked is the under-the-stripe half of Vm acceptance: the
// acceptance record takes its place in the log (the record is the
// acceptance), the channel's dedup set is marked and the credit is
// applied at that LSN. A record with actions is only enqueued — its
// LSN is final, so the credit can land now and the caller waits for
// the force after releasing the stripe (settleAccepts), acknowledging
// nothing before. A record with nothing to credit gains nothing from
// that and is appended synchronously: it is stable, and ackable, on
// return. Caller holds lifeMu's read side and the item's stripe.
func (s *Site) vmAcceptLocked(from ident.SiteID, rec *wal.VmAcceptRec) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if len(rec.Actions) == 0 {
		lsn, err := s.logAppend(wal.RecVmAccept, rec.Encode())
		if err == nil {
			s.vm.MarkAccepted(from, rec.Seq)
		}
		return lsn, err
	}
	data := rec.Encode()
	lsn, err := s.cfg.Log.Enqueue(wal.RecVmAccept, data)
	if err != nil {
		return 0, err
	}
	s.noteAppend()
	s.vm.MarkApplied(from, rec.Seq)
	if _, err := s.cfg.DB.ApplyAll(lsn, rec.Actions); err != nil {
		// Protocol invariant broken, with the record already in the
		// log's queue: stop rather than run on beside it.
		s.failStop("accept-apply", err)
		return 0, err
	}
	return lsn, nil
}
