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

// acceptedVm is one Vm credited at the LSN its acceptance record
// reserved, and everything that must follow that record's stability.
// It keeps its own copy of what it needs of the Vm: it outlives the
// envelope that carried it.
type acceptedVm struct {
	from     ident.SiteID
	seq      uint64
	item     ident.ItemID
	amount   core.Value
	rec      durable
	creditTS tstamp.TS
	hop      *obs.TxnTrace
	hopStart time.Time
}

// processVm is the under-the-stripe half of accepting one Vm (§4.2,
// §5). The Vm is credited at enqueue: its acceptance record takes its
// place in the log, the channel's dedup set and the store take the
// credit at that LSN, and the stripe is released and the waiter woken
// without asking for a force — whatever the waiter logs next sits
// behind the acceptance record, and the log is stable in LSN order, so
// the record rides the waiter's force (or whichever comes first). What
// must follow stability (the ack above all) goes onto the site's list
// of pending acceptances for settleAccepts. A Vm with nothing to credit
// — the zero-value answer a full read gets from a peer that holds
// nothing — has its force waited for under the stripe (DESIGN §2.7). A
// duplicate owes its sender an ack at once (owed); a deferral (item
// locked by a non-waiting transaction) owes nothing; retransmission
// will return. A waiting holder's parking record is a field of the
// item's state, read under the stripe already held; its progress
// fields are updated under the waiter's own lock.
func (s *Site) processVm(owed *acks, from ident.SiteID, m *wire.Vm) {
	hopStart := s.cfg.Clock.Now()
	// A traced Vm grows a vm-accept span here: the credit half of the
	// redistribution, parented on the sender's rds-create span.
	var hop *obs.TxnTrace
	if m.Trace.Valid() && s.obsm.ring != nil {
		hop = s.obsm.ring.BeginSpan(s.obsm.site, "vm-accept",
			m.Trace.Origin.String(), uint64(m.Trace.TS), s.newSpan(), m.Trace.Span)
	}

	stripe, st := s.lockItem(m.Item)

	if !s.vm.ShouldAccept(from, m.Seq) {
		stripe.Unlock()
		s.obsm.forPeer(from).vmDups.Inc()
		hop.Finish("duplicate")
		// Duplicate: re-ack so the sender can retire it (the ack covers
		// it only once its acceptance record is stable).
		owed.add(from)
		return
	}

	var w *waiter
	if st.holder != ident.NoTxn {
		w = st.waiter
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
			hop.Finish("deferred")
			return
		}
	}

	// Accept: log first (the record is the acceptance), then credit.
	rec := &wal.VmAcceptRec{
		From:    from,
		Seq:     m.Seq,
		Actions: []wal.Action{{Item: m.Item, Delta: m.Amount}},
	}
	var creditTS tstamp.TS
	if w != nil {
		// The waiting transaction consumes the credit: it serializes
		// inside that transaction, at its timestamp.
		creditTS = w.ts
	} else {
		// Accepting into a free item is an Rds transaction of its own
		// (§6): it draws a fresh timestamp and, under Conc1, stamps the
		// value. Without the stamp a later full read could be admitted
		// at a timestamp below the credit it already observed — ordered
		// before it in the serial history, yet seeing its effect.
		creditTS = s.lamport.Next()
		if s.policy.StampOnLock() {
			rec.Actions[0].SetTS = creditTS
		}
	}
	if m.Amount == 0 {
		// Zero-value Vm (a full-read "I hold nothing" response)
		// still needs the acceptance record for dedup state.
		rec.Actions = nil
	}
	d, err := s.enqueueApply(wal.RecVmAccept, rec.EncodeTo, rec.Actions,
		func() { s.vm.MarkApplied(from, rec.Seq) })
	if err == nil && len(rec.Actions) == 0 {
		// Nothing to credit: the force is waited for here, under the
		// stripe (the zero-actions exception, DESIGN §2.7); the
		// handler's return settles it.
		err = s.waitForce(&d)
	}
	if err != nil {
		stripe.Unlock()
		hop.Finish("log-error")
		return
	}
	st.mergeFlow(m.FlowVec)
	stripe.Unlock()
	hop.Step("apply", "")
	// Pending before the waiter wakes, so the force its commit asks for
	// settles this acceptance too; and before the handler lets go of
	// lifeMu, so Crash, behind its fence, finds every one.
	s.acceptMu.Lock()
	s.accepts = append(s.accepts, acceptedVm{
		from: from, seq: m.Seq, item: m.Item, amount: m.Amount,
		rec: d, creditTS: creditTS, hop: hop, hopStart: hopStart,
	})
	s.nAccepts.Store(int32(len(s.accepts)))
	s.acceptMu.Unlock()
	if w != nil {
		w.noteAccept(m.Item, from)
		w.wake()
	}
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
		if e.rec.lsn <= upTo {
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
// settles there at once — the zero-value acceptance's own force
// included), and from the retransmission tick and Crash
// (forceAccepts). Each one is counted, reported and made ackable; then
// every peer owed an ack — for one of these, or for a duplicate in
// owed — gets a single cumulative one, unless the site is going down.
func (s *Site) settleAccepts(upTo uint64, owed acks) {
	for _, e := range s.takeAccepts(upTo) {
		wire.PutWriter(e.rec.w)
		if e.hop != nil {
			e.hop.Step("wal-flush", fmt.Sprintf("lsn=%d amount=%d seq=%d", e.rec.lsn, e.amount, e.seq))
		}
		s.reportRds(e.creditTS, e.item, e.amount)
		s.obsm.observeStep("vm-apply", s.cfg.Clock.Now().Sub(e.hopStart))
		s.obsm.flight.Recordf(s.obsm.site, "vm-accept", "from=%v item=%s amount=%d seq=%d", e.from, e.item, e.amount, e.seq)
		s.obsm.forPeer(e.from).vmAccepted.Inc()
		// Ackable last: any envelope may piggyback the cursor from here
		// on, and a sender that sees its Vm retired may take the
		// acceptance as counted and reported.
		s.vm.MarkStable(e.from, e.seq)
		e.hop.Finish("accepted")
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
// idle site acks at most one RetransmitEvery late, and so does Crash,
// so that nothing applied is missing from the log once it returns. A
// force that fails stops the site (accept-force): the acceptances it
// covered are dropped unacknowledged, their credits left in a store
// that is now ahead of its log.
func (s *Site) forceAccepts() {
	if s.nAccepts.Load() == 0 {
		return
	}
	var high uint64
	s.acceptMu.Lock()
	for _, e := range s.accepts {
		high = max(high, e.rec.lsn)
	}
	s.acceptMu.Unlock()
	if high == 0 {
		return
	}
	if err := s.cfg.Log.WaitDurable(high); err != nil {
		for _, e := range s.takeAccepts(high) {
			wire.PutWriter(e.rec.w)
			e.hop.Finish("fail-stop")
		}
		s.failStop("accept-force", err)
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
