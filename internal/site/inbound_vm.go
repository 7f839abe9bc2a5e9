package site

import (
	"fmt"
	"slices"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// handleVm implements Vm acceptance (§4.2, §5): exactly-once crediting
// of the carried value, by an Rds transaction when the item is free,
// by the waiting transaction itself when it holds the lock, and
// deferral (ignore; retransmission will return) when an unrelated
// transaction holds it.
func (s *Site) handleVm(from ident.SiteID, m *wire.Vm) {
	var owed acks
	s.processVm(&owed, from, m)
	s.settleAccepts(s.cfg.Log.DurableLSN(), owed)
}

// handleVmBatch accepts each carried Vm independently — the receiving
// half of Vm piggybacking: one envelope, many Vm; their records ride
// one force, and whoever settles them sends one ack envelope back.
func (s *Site) handleVmBatch(from ident.SiteID, b *wire.VmBatch) {
	var owed acks
	for i := range b.Vms {
		s.processVm(&owed, from, &b.Vms[i])
	}
	s.settleAccepts(s.cfg.Log.DurableLSN(), owed)
}

// acks lists the peers owed a cumulative ack, each once.
type acks []ident.SiteID

func (a *acks) add(to ident.SiteID) {
	if !slices.Contains(*a, to) {
		*a = append(*a, to)
	}
}

// acceptedVm is one Vm's credit from arrival to acknowledgement: held
// on the transaction it answers, then logged at lsn — by an acceptance
// record or by that transaction's commit record — and settled once the
// log is stable there. It keeps its own copy of what it needs of the
// Vm: it outlives the envelope that carried it. w is the pooled buffer
// of its own acceptance record, nil when the commit's record carries it.
type acceptedVm struct {
	from     ident.SiteID
	seq      uint64
	item     ident.ItemID
	amount   core.Value
	creditTS tstamp.TS
	bound    uint64 // the clock reservation queued ahead of its record, if any
	lsn      uint64
	w        *wire.Writer
	hop      *obs.TxnTrace
	hopStart time.Time
}

// processVm is the under-the-stripe half of accepting one Vm (§4.2,
// §5), and it has one rule per state of the item. A duplicate owes its
// sender an ack at once (owed). An item locked by a transaction the Vm
// is not addressed to parks it; retransmission would return it anyway.
// A Vm addressed to the transaction waiting on the item is held on that
// waiter: its credit counts toward the waiter's adequacy and full reads
// at once, and the store, the Vm channel and the log see it only when
// the waiter's exit logs it — its commit record, or on a timeout an
// acceptance record (exec.go). A crash drops it unacknowledged, and the
// sender's retransmission brings it back. A Vm to a free item is an Rds
// transaction of its own: its acceptance record is enqueued and the
// credit applied at that LSN (acceptLogged), riding whatever force
// comes next. Nothing here waits for a force.
func (s *Site) processVm(owed *acks, from ident.SiteID, m *wire.Vm) {
	hopStart := s.cfg.Clock.Now()
	// A traced Vm grows a vm-accept span here: the credit half of the
	// redistribution, parented on the sender's rds-create span.
	var hop *obs.TxnTrace
	if m.Trace.Valid() && s.obsm.ring != nil {
		hop = s.obsm.ring.BeginSpan(hopStart, s.obsm.site, "vm-accept",
			m.Trace.Origin.String(), uint64(m.Trace.TS), s.newSpan(), m.Trace.Span)
	}

	stripe, st := s.lockItem(m.Item)

	if !s.vm.ShouldAccept(from, m.Seq) {
		stripe.Unlock()
		s.obsm.forPeer(from).vmDups.Inc()
		s.endHop(hop, "duplicate")
		// Duplicate: re-ack so the sender can retire it (the ack covers
		// it only once its acceptance record is stable).
		owed.add(from)
		return
	}
	e := acceptedVm{from: from, seq: m.Seq, item: m.Item, amount: m.Amount, hop: hop, hopStart: hopStart}

	if st.holder != ident.NoTxn {
		w := st.waiter
		if w == nil || m.ReqTxn != w.ts {
			// Locked by a transaction not in its waiting phase, or a
			// Vm not addressed to the waiting holder (an unsolicited
			// rebalancer credit, or a grant for an older incarnation
			// of the request): "if it is locked, the message can be
			// ignored; it will eventually be sent again anyway"
			// (§4.2). Consuming a foreign credit at the waiter's
			// timestamp would splice it into that transaction's
			// serial position even though the matching deduct
			// serialized elsewhere — the waiter's full read would
			// observe value its serial position cannot explain. The
			// Vm is parked and redelivered when the lock releases.
			s.deferVm(st, from, m)
			stripe.Unlock()
			s.endHop(hop, "deferred")
			return
		}
		// The waiting transaction consumes the credit: it serializes
		// inside that transaction, at its timestamp.
		e.creditTS = w.ts
		if !w.hold(e) {
			// A copy of a Vm already held. Its acceptance is the record
			// the waiter's exit writes, and its ack follows that record's
			// force: none is owed now.
			stripe.Unlock()
			s.obsm.forPeer(from).vmDups.Inc()
			s.endHop(hop, "duplicate")
			return
		}
		// Still under the stripe: from its release on, the waiter's
		// exit may take the entry, and the hop with it.
		s.stepHop(hop, "hold", "")
		st.mergeFlow(m.FlowVec)
		stripe.Unlock()
		w.wake()
		return
	}

	// Accepting into a free item is an Rds transaction of its own (§6):
	// it draws a fresh timestamp and, under Conc1, stamps the value.
	// Without the stamp a later full read could be admitted at a
	// timestamp below the credit it already observed — ordered before
	// it in the serial history, yet seeing its effect. The one draw
	// made under a stripe waits for no force: a reservation it needs is
	// queued ahead of the acceptance record, stable whenever that is.
	e.creditTS = s.lamport.Next()
	var stamp tstamp.TS
	if s.policy.StampOnLock() {
		stamp = e.creditTS
	}
	err := s.queueReserve(&e)
	if err == nil {
		err = s.acceptLogged(e, stamp)
	}
	if err == nil {
		st.mergeFlow(m.FlowVec)
	}
	stripe.Unlock()
	if err != nil {
		s.endHop(hop, "log-error")
	}
}

// queueReserve enqueues the clock reservation e's creditTS needs, if
// it needs one, without waiting for it: it is stable once e's record,
// enqueued behind it, is, and e takes its bound to the clock when it
// settles. Until then send caps the clock it piggybacks at the stable
// reservation. The record's buffer is left to the collector: the log
// borrows it until the force, and nobody waits on this record to hand
// it back. Caller holds lifeMu's read side and e's item's stripe.
func (s *Site) queueReserve(e *acceptedVm) error {
	n := e.creditTS.Counter()
	if n <= s.lamport.Bound() {
		return nil
	}
	rec := wal.ClockRec{Bound: s.lamport.Claim(n)}
	if _, err := s.enqueueApply(wal.RecClock, rec.EncodeTo, nil, nil); err != nil {
		return err
	}
	e.bound = rec.Bound
	return nil
}

// acceptLogged writes e's own acceptance record — log first (the record
// is the acceptance), then credit: the record is enqueued, the Vm
// marked applied on its channel and its value applied at the record's
// LSN, stamped with stamp if nonzero. It asks for no force: whatever
// the site logs next sits behind the record, and the log is stable in
// LSN order, so it rides the next force anyone asks for, and e waits on
// the pending list for settleAccepts. Caller holds lifeMu's read side
// and the stripe of e's item.
func (s *Site) acceptLogged(e acceptedVm, stamp tstamp.TS) error {
	rec := &wal.VmAcceptRec{
		From:    e.from,
		Seq:     e.seq,
		Actions: []wal.Action{{Item: e.item, Delta: e.amount, SetTS: stamp}},
	}
	d, err := s.enqueueApply(wal.RecVmAccept, rec.EncodeTo, rec.Actions,
		func() { s.vm.MarkApplied(e.from, e.seq) })
	if err != nil {
		return err
	}
	e.w = d.w
	s.pend(d.lsn, e)
	return nil
}

// pend puts credits logged at lsn on the site's pending list, from
// which settleAccepts takes them once lsn is stable. The caller still
// holds lifeMu's read side, so Crash, behind its fence, finds every
// one, and holds it before it wakes anyone whose commit could force
// them.
func (s *Site) pend(lsn uint64, es ...acceptedVm) {
	s.acceptMu.Lock()
	for _, e := range es {
		e.lsn = lsn
		s.stepHop(e.hop, "apply", "")
		s.accepts = append(s.accepts, e)
	}
	s.nAccepts.Store(int32(len(s.accepts)))
	s.acceptMu.Unlock()
}

// takeAccepts removes and returns the pending acceptances whose records
// lie at or below upTo.
func (s *Site) takeAccepts(upTo uint64) []acceptedVm {
	if s.nAccepts.Load() == 0 {
		return nil
	}
	s.acceptMu.Lock()
	defer s.acceptMu.Unlock()
	var taken []acceptedVm
	kept := s.accepts[:0]
	for _, e := range s.accepts {
		if e.lsn <= upTo {
			taken = append(taken, e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(s.accepts[len(kept):])
	s.accepts = kept
	s.nAccepts.Store(int32(len(kept)))
	return taken
}

// settleAccepts is the after-the-force half of every pending acceptance
// whose record is known stable, the log being durable up to upTo. It
// runs wherever that is learnt, holding no stripe: after every commit,
// create and checkpoint force, at the return of every Vm handler and
// redelivery (up to the log's DurableLSN, so a log without a queue
// settles there at once), from the retransmission tick (forceAccepts),
// and in Crash, for those whose records the last flush landed. Each one
// is counted, reported and made ackable; then every peer owed an ack —
// for one of these, or for a duplicate in owed — gets a single
// cumulative one, unless the site is going down.
func (s *Site) settleAccepts(upTo uint64, owed acks) {
	for _, e := range s.takeAccepts(upTo) {
		wire.PutWriter(e.w)
		now := s.cfg.Clock.Now()
		if e.hop != nil {
			e.hop.Step(now, "wal-flush", fmt.Sprintf("lsn=%d amount=%d seq=%d", e.lsn, e.amount, e.seq))
		}
		s.reportRds(e.creditTS, e.item, e.amount)
		s.obsm.observeStep(stepVmApply, now.Sub(e.hopStart))
		s.obsm.flight.Recordf(s.obsm.site, "vm-accept", "from=%v item=%s amount=%d seq=%d", e.from, e.item, e.amount, e.seq)
		s.obsm.forPeer(e.from).vmAccepted.Inc()
		s.lamport.Reserve(e.bound)
		// Ackable last: any envelope may piggyback the cursor from here
		// on, and a sender that sees its Vm retired may take the
		// acceptance as counted and reported.
		s.vm.MarkStable(e.from, e.seq)
		e.hop.Finish(now, "accepted")
		owed.add(e.from)
	}
	if !s.Up() {
		return
	}
	for _, p := range owed {
		s.send(p, &wire.VmAck{UpTo: s.vm.AckFor(p)})
	}
}

// forceAccepts asks for the force of every pending acceptance and
// settles them: the share of acceptances no commit, create or
// checkpoint force has carried. The retransmission tick calls it, so an
// idle site acks at most one RetransmitEvery late. A force that fails
// stops the site (accept-force): the crash drops the acceptances
// unacknowledged, and the restart rebuilds the store without them.
func (s *Site) forceAccepts() {
	if s.nAccepts.Load() == 0 {
		return
	}
	var high uint64
	s.acceptMu.Lock()
	for _, e := range s.accepts {
		high = max(high, e.lsn)
	}
	s.acceptMu.Unlock()
	if high == 0 {
		return
	}
	if err := s.cfg.Log.WaitDurable(high); err != nil {
		s.failStop("accept-force", err) // its crash drops them
		return
	}
	s.settleAccepts(high, nil)
}

// deferredVm is one parked inbound Vm awaiting its item's unlock.
type deferredVm struct {
	from ident.SiteID
	vm   wire.Vm
}

// maxDeferredPerItem bounds parked Vm per item; beyond it the sender's
// retransmission is the delivery path, as in plain §4.2.
const maxDeferredPerItem = 16

// deferVm parks a Vm whose item was locked, for redelivery on unlock.
// Duplicates (a retransmission racing the parked copy) collapse. Caller
// holds the item's stripe.
func (s *Site) deferVm(st *itemState, from ident.SiteID, m *wire.Vm) {
	for i := range st.deferred {
		if st.deferred[i].from == from && st.deferred[i].vm.Seq == m.Seq {
			return
		}
	}
	if len(st.deferred) >= maxDeferredPerItem {
		return
	}
	st.deferred = append(st.deferred, deferredVm{from: from, vm: *m})
	s.obsm.flight.Recordf(s.obsm.site, "vm-defer", "from=%v item=%s seq=%d parked=%d", from, m.Item, m.Seq, len(st.deferred))
}

// redeliver re-runs the acceptance path for the Vm a lock release took
// from behind the lock (releaseItems) — they land in the unlock window
// instead of waiting out the sender's retransmit interval (which an
// item locked back-to-back may never overlap). A redelivered Vm that
// finds the item locked again simply parks again. Like a handler, it
// asks for no force: the transaction whose release redelivers answers
// on its own record's stability, not on these. Caller holds nothing.
func (s *Site) redeliver(parked []deferredVm) {
	if len(parked) == 0 {
		return
	}
	// Mirror the network entry point: the lifeMu fence and up-check
	// keep redelivery inside the site's lifetime.
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.Up() {
		return
	}
	s.obsm.flight.Recordf(s.obsm.site, "vm-redeliver", "count=%d", len(parked))
	var owed acks
	for i := range parked {
		s.processVm(&owed, parked[i].from, &parked[i].vm)
	}
	s.settleAccepts(s.cfg.Log.DurableLSN(), owed)
}
