package site

import (
	"fmt"
	"math/bits"
	"slices"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// This file is the admission + durability layer: the per-item stripes
// (the only lock for state mutation), the scheme's admission check,
// and the one durable-write path every record takes — Run's commit
// (exec.go), a Vm's creation (rds.go) and acceptance (inbound_vm.go),
// Checkpoint and Place. None of them touches the log or store any
// other way.
//
// The path has two steps. enqueueApply, under the stripes of the
// record's items, enqueues the record — its LSN is final — and applies
// it at that LSN; the caller does its volatile bookkeeping and lets go
// of the no-wait locks and the stripe. waitForce, still under lifeMu's
// read side, asks for the record's force and waits for it, and only
// after that does anything leave the site: a reply, a hook, a Vm. An
// acceptance record skips the second step: nothing waits on it, so it
// asks for no force, rides whichever force next covers its LSN, and its
// ack leaves once that force lands (inbound_vm.go). A Vm consumed by
// the transaction it answers has no record of its own: the commit's
// record lists it and carries its credit. No stripe
// is held across a force, so whoever queues on the item next enqueues
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
// stripes: the scheme's per-item AllowLock test against the item's
// stamp (sts are the states of items, in order) and the local-adequacy
// test against needs (also parallel to items). Caller holds every
// item's stripe; the stripes exclude all mutators of these items, so
// stamps and values cannot move between check and the caller's
// lock+stamp. A CC rejection on any item outranks a shortfall on
// another.
func (s *Site) admitLocked(ts tstamp.TS, items []ident.ItemID, sts []*itemState, needs []core.Value) admitVerdict {
	verdict := admitOK
	for i, item := range items {
		if !s.policy.AllowLock(ts, s.stampOf(sts[i])) {
			return admitCCRejected
		}
		if s.cfg.DB.Value(item) < needs[i] {
			verdict = admitShort
		}
	}
	return verdict
}

// lockAndStamp takes the transaction's no-wait locks on the items whose
// states are sts and, under a StampOnLock scheme (Conc1), stamps them —
// §5 step 1's lock+stamp half. Caller holds the items' stripes.
func (s *Site) lockAndStamp(ts tstamp.TS, sts []*itemState) bool {
	if !tryLockItems(ts.Txn(), sts) {
		return false
	}
	if s.policy.StampOnLock() {
		for _, st := range sts {
			st.ts = ts
		}
	}
	return true
}

// durable is one record between the two steps: its kind, the LSN it
// reserved, and the pooled buffer holding its bytes, which the log
// borrows until waitForce returns.
type durable struct {
	kind wal.RecordKind
	lsn  uint64
	w    *wire.Writer
}

// recordName names a record kind in its fail-stop reasons
// (<name>-apply, <name>-force; obs.go registers them).
var recordName = map[wal.RecordKind]string{
	wal.RecCommit:     "commit",
	wal.RecVmCreate:   "create",
	wal.RecVmAccept:   "accept",
	wal.RecCheckpoint: "checkpoint",
	wal.RecClock:      "clock",
}

// enqueueApply is the first step of every durable write: encode the
// record into a pooled buffer and Enqueue it, then run mark — the Vm
// channel's bookkeeping for the record, if any — and apply actions at
// the reserved LSN. The caller holds the stripes of every action's
// item, so same-item records apply in LSN order — enqueue order while
// the stripe is held across enqueue and apply — and an item's state is
// always what a replay of its log prefix rebuilds; Checkpoint's cut,
// taken under every stripe, then finds no record enqueued but not
// applied. It also holds lifeMu's read side from here through
// waitForce, so a crash's fence waits it out. Every record but a
// checkpoint feeds the automatic checkpointer's growth count; a
// checkpoint record never re-arms the trigger it clears. An enqueue
// error is returned as is. An apply that fails, with the record already
// in the log's queue, stops the site (<kind>-apply); the log keeps
// borrowing the buffer until the record is forced or dropped, so it is
// not pooled again. Each action's item remembers the record's LSN as
// the last one applied to it — what a read that writes no record must
// see stable before it answers (Run, handleRequest) — and takes the
// action's SetTS as its stamp if that is higher. actions is borrowed
// for the call.
func (s *Site) enqueueApply(kind wal.RecordKind, encode func(*wire.Writer), actions []wal.Action, mark func()) (durable, error) {
	w := wire.GetWriter()
	encode(w)
	lsn, err := s.cfg.Log.Enqueue(kind, w.Bytes())
	if err != nil {
		wire.PutWriter(w)
		return durable{}, err
	}
	if kind != wal.RecCheckpoint {
		s.noteAppend()
	}
	if mark != nil {
		mark()
	}
	if _, err := s.cfg.DB.ApplyAll(lsn, actions); err != nil {
		s.failStop(recordName[kind]+"-apply", err)
		return durable{}, err
	}
	for _, a := range actions {
		st := s.itemAt(s.stripeOf(a.Item), a.Item)
		st.logged, st.ts = lsn, max(st.ts, a.SetTS)
	}
	return durable{kind: kind, lsn: lsn, w: w}, nil
}

// waitForce is the second step: ask for d's record to be forced and
// wait until it is stable, hand its buffer back to the pool, and stop
// the site if the force failed (<kind>-force) — the record's effects
// stay applied in a store now ahead of its log until the crash that
// follows rebuilds it, and nothing built on them may leave. Holding
// lifeMu's read side across the wait keeps Crash's fence meaning
// "nobody waits on the log", so the crash may drop the log's queue; no
// stripe is held across it but by Checkpoint (every stripe). Pending
// acceptances ride the force rather than ask for one of their own; once
// the caller holds no stripe it settles those the force covered
// (settleAccepts up to d's LSN), so their OnRds hook never runs under
// one.
func (s *Site) waitForce(d *durable) error {
	err := s.cfg.Log.WaitDurable(d.lsn)
	wire.PutWriter(d.w)
	d.w = nil
	if err != nil {
		s.failStop(recordName[d.kind]+"-force", err)
	}
	return err
}

// draw is Lamport's Next for every stamp but an acceptance's (which
// is drawn under a stripe, processVm): a stamp above the clock's
// reservation waits for a new one (reserve) before anything can carry
// it off the site. Caller holds lifeMu's read side and no stripe.
func (s *Site) draw() (tstamp.TS, error) {
	ts := s.lamport.Next()
	return ts, s.reserve(ts.Counter())
}

// reserve makes counter n safe to send: unless the clock's stable
// reservation covers it, it logs a RecClock reaching Stride past n and
// waits for its force. Racing reservers each log their own — a few
// bytes once per Stride — and none waits on another's record. A force
// that fails stops the site (clock-force). Caller holds lifeMu's read
// side and no stripe.
func (s *Site) reserve(n uint64) error {
	if n <= s.lamport.Bound() {
		return nil
	}
	b := s.lamport.Claim(n)
	if err := s.logReservation(b); err != nil {
		return err
	}
	s.lamport.Reserve(b)
	return nil
}

// logReservation logs a RecClock of bound b and waits for its force.
func (s *Site) logReservation(b uint64) error {
	d, err := s.enqueueApply(wal.RecClock, (&wal.ClockRec{Bound: b}).EncodeTo, nil, nil)
	if err == nil {
		err = s.waitForce(&d)
	}
	return err
}

// Place logs this site's initial shares (§3's initial distribution)
// as one commit record with no timestamp, an action crediting each
// share, through the one durable-write path: a restart rebuilds the
// placement from the log, and a placement lands whole or not at all.
// A share whose item a record has named already — a placement recovered
// from the log, or a Vm's credit; a stamp names none — or that an
// earlier share names is skipped, not logged. Call it before Start, so
// that no credit names an item first, or while up.
func (s *Site) Place(shares []wal.Action) (placed []wal.Action, skipped []ident.ItemID, err error) {
	var stripes uint64
	for _, a := range shares {
		if a.Delta < 0 {
			return nil, nil, fmt.Errorf("site %v: negative share %d of %q", s.cfg.ID, a.Delta, a.Item)
		}
		stripes |= 1 << uint(s.stripeOf(a.Item))
	}
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	s.lockStripes(stripes)
	for _, a := range shares {
		_, held := s.cfg.DB.Get(a.Item)
		if held || slices.ContainsFunc(placed, func(p wal.Action) bool { return p.Item == a.Item }) {
			skipped = append(skipped, a.Item)
		} else {
			placed = append(placed, wal.Action{Item: a.Item, Delta: a.Delta})
		}
	}
	if len(placed) == 0 {
		s.unlockStripes(stripes)
		return nil, skipped, nil
	}
	d, err := s.enqueueApply(wal.RecCommit, (&wal.CommitRec{Actions: placed}).EncodeTo, placed, nil)
	s.unlockStripes(stripes)
	if err == nil {
		err = s.waitForce(&d)
	}
	if err != nil {
		return nil, nil, err
	}
	s.settleAccepts(d.lsn, nil)
	return placed, skipped, nil
}
