package site

import (
	"fmt"
	"slices"
	"time"

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
	var run acceptRun
	s.processVm(&run, from, m)
	s.settleAccepts(&run)
}

// handleVmBatch accepts each carried Vm independently, then waits for
// the log and sends one cumulative ack for the whole batch — the
// receiving half of Vm piggybacking (one envelope, many Vm; one force
// and one ack envelope back).
func (s *Site) handleVmBatch(from ident.SiteID, b *wire.VmBatch) {
	var run acceptRun
	for i := range b.Vms {
		s.processVm(&run, from, &b.Vms[i])
	}
	s.settleAccepts(&run)
}

// acceptRun is a run of inbound Vm handled together: what each still
// owes once the log has caught up with it.
type acceptRun struct {
	// accepted are the acceptances made, in LSN order. The
	// value-bearing ones were credited at enqueue and their records
	// are not yet known stable.
	accepted []acceptedVm
	// ackTo lists the peers owed a cumulative ack (an acceptance or a
	// duplicate; a deferral owes none).
	ackTo []ident.SiteID
}

// acceptedVm is one Vm credited at the LSN its acceptance record
// reserved, and everything that must follow that record's stability.
type acceptedVm struct {
	from     ident.SiteID
	m        *wire.Vm
	rec      durable
	creditTS tstamp.TS
	hop      *obs.TxnTrace
	hopStart time.Time
}

func (r *acceptRun) oweAck(to ident.SiteID) {
	if !slices.Contains(r.ackTo, to) {
		r.ackTo = append(r.ackTo, to)
	}
}

// processVm is the under-the-stripe half of accepting one Vm (§4.2,
// §5). The Vm is credited at enqueue: its acceptance record takes its
// place in the log, the channel's dedup set and the store take the
// credit at that LSN, and the stripe is released and the waiter woken
// without waiting for the force — whatever the waiter logs next sits
// behind the acceptance record, and the log is stable in LSN order.
// What must follow stability (the ack above all) is left in run for
// settleAccepts. A Vm with nothing to credit — the zero-value answer a
// full read gets from a peer that holds nothing — has its force waited
// for under the stripe (DESIGN §2.7). A deferral (item locked
// by a non-waiting transaction) owes nothing; retransmission will
// return. A waiting holder's parking record is a field of the item's
// state, read under the stripe already held; its progress fields are
// updated under the waiter's own lock.
func (s *Site) processVm(run *acceptRun, from ident.SiteID, m *wire.Vm) {
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
		run.oweAck(from)
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
		// stripe (the zero-actions exception, DESIGN §2.7).
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
	if w != nil {
		w.noteAccept(m.Item, from)
		w.wake()
	}
	run.oweAck(from)
	run.accepted = append(run.accepted, acceptedVm{
		from: from, m: m, rec: d, creditTS: creditTS, hop: hop, hopStart: hopStart,
	})
}

// settleAccepts is the after-the-force half of a run: each acceptance,
// in LSN order, waits for its record (after the first, the force that
// covered it has usually covered the rest), then is counted, reported
// and made ackable, and every peer owed one gets a single cumulative
// ack. The caller holds lifeMu's read side. If a force fails, the
// credits stay in a store that is now ahead of its log: nothing more is
// acknowledged and the site stops.
func (s *Site) settleAccepts(run *acceptRun) {
	for i := range run.accepted {
		e := &run.accepted[i]
		if s.waitForce(&e.rec) != nil {
			return
		}
		if e.hop != nil {
			e.hop.Step("wal-flush", fmt.Sprintf("lsn=%d amount=%d seq=%d", e.rec.lsn, e.m.Amount, e.m.Seq))
		}
		s.reportRds(e.creditTS, e.m.Item, e.m.Amount)
		s.obsm.observeStep("vm-apply", s.cfg.Clock.Now().Sub(e.hopStart))
		s.obsm.flight.Recordf(s.obsm.site, "vm-accept", "from=%v item=%s amount=%d seq=%d", e.from, e.m.Item, e.m.Amount, e.m.Seq)
		s.obsm.forPeer(e.from).vmAccepted.Inc()
		// Ackable last: any envelope may piggyback the cursor from here
		// on, and a sender that sees its Vm retired may take the
		// acceptance as counted and reported.
		s.vm.MarkStable(e.from, e.m.Seq)
		e.hop.Finish("accepted")
	}
	for _, p := range run.ackTo {
		s.send(p, &wire.VmAck{UpTo: s.vm.AckFor(p)})
	}
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
// finds the item locked again simply parks again. Caller holds nothing.
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
	var run acceptRun
	for i := range parked {
		s.processVm(&run, parked[i].from, &parked[i].vm)
	}
	s.settleAccepts(&run)
}
