package site

import (
	"sync"

	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// handleRequest implements the remote site's side of §5: the donor
// rule (rules.go) decides whether to honor a request for local quota,
// and if so this creates the virtual message that carries it. It runs
// under the router's lifeMu read side and serializes on the item's
// stripe; the counters it bumps are atomics — no site-wide lock
// anywhere on this path.
func (s *Site) handleRequest(from ident.SiteID, req *wire.Request) {
	hopStart := s.cfg.Clock.Now()
	// A traced request grows an rds-create span here: the deduct half
	// of the redistribution, parented on the requester's root span.
	var hop *obs.TxnTrace
	var hopSpan uint64
	if req.Trace.Valid() && s.obsm.ring != nil {
		hopSpan = s.newSpan()
		hop = s.obsm.ring.BeginSpan(hopStart, s.obsm.site, "rds-create",
			req.Trace.Origin.String(), uint64(req.Trace.TS), hopSpan, req.Trace.Span)
	}

	stripe, st := s.lockItem(req.Item)

	decline := func(reason declineReason) {
		stripe.Unlock()
		s.obsm.forPeer(from).declined[reason].Inc()
		s.obsm.flight.Recordf(s.obsm.site, "rds-decline", "from=%v item=%s txn=%v reason=%v", from, req.Item, req.Txn, reason)
		s.endHop(hop, "declined:"+reason.String())
	}

	view := itemView{locked: st.holder != ident.NoTxn, stamp: s.stampOf(st), have: s.cfg.DB.Value(req.Item)}
	if req.FullRead {
		view.outstanding = s.vm.HasOutstanding(req.Item)
	}
	verdict := donorRule(view, valueAsk{txn: req.Txn, want: req.Want, fullRead: req.FullRead}, s.policy, s.grant)
	switch verdict.answer {
	case answerDecline:
		decline(verdict.reason)
		if verdict.ack {
			s.sendAck(from)
		}
		return
	case answerNoShare:
		s.answerNoShare(stripe, st, from, req, hop)
		return
	}

	// Honor: an Rds transaction acting at this site (§6), at the
	// requester's timestamp. The Vm is sent only once its record is
	// stable (§4.2: the Vm exists from that instant).
	v := wal.VmOut{To: from, Item: req.Item, Amount: verdict.amount, ReqTxn: req.Txn}
	if hopSpan != 0 {
		// The outgoing Vm carries this hop's span as the parent of
		// the receiver's vm-accept and our own eventual vm-ack span.
		v.Trace = wire.TraceCtx{Origin: req.Trace.Origin, TS: req.Trace.TS, Span: hopSpan}
	}
	applied, err := s.createVm(stripe, st, req.Txn, ident.NoTxn, &v, hop)
	if !applied {
		decline(declineLogError)
		return
	}
	if err != nil {
		s.endHop(hop, "fail-stop")
		return
	}
	now := s.cfg.Clock.Now()
	s.obsm.observeStep(stepRdsCreate, now.Sub(hopStart))
	s.obsm.forPeer(from).honored.Inc()
	hop.Finish(now, "honored")
}

// answerNoShare answers a full read of an item this site holds none of,
// with no Vm of its own carrying it away: the read has everything this
// site had, so no value moves and nothing is logged. Under Conc1 the
// item is stamped at the reader's timestamp, as a grant's creation
// would stamp it; the stamp lives in the item's state alone, and the
// clock's reservation, stable before the request was handled (handle),
// covers it across a crash. The answer waits for the log to be stable
// up to the last record applied to the item: an unforced record that
// left the item empty would otherwise be seen by a read that outlives
// it. The caller holds lifeMu's read side and the item's stripe, which
// this releases.
func (s *Site) answerNoShare(stripe *sync.Mutex, st *itemState, from ident.SiteID, req *wire.Request, hop *obs.TxnTrace) {
	if s.policy.StampOnLock() {
		st.ts = req.Txn
	}
	fence := st.logged
	m := &wire.NoShare{Txn: req.Txn, Item: req.Item, FlowVec: st.flow.Entries()}
	stripe.Unlock()
	if err := s.cfg.Log.WaitDurable(fence); err != nil || !s.Up() {
		// The fenced record's writer stops the site; the read times out.
		s.obsm.forPeer(from).declined[declineLogError].Inc()
		s.endHop(hop, "declined:"+declineLogError.String())
		return
	}
	s.send(from, m)
	s.obsm.forPeer(from).honored.Inc()
	s.endHop(hop, "noshare")
}

// handleNoShare takes a NoShare answer for the full read waiting on the
// item: the responding peer is marked answered and its flow vector
// merged, as a Vm's would be. An answer for a transaction no longer
// waiting there is stale and dropped.
func (s *Site) handleNoShare(from ident.SiteID, m *wire.NoShare) {
	stripe, st := s.lockItem(m.Item)
	w := st.waiter
	if w == nil || w.ts != m.Txn || !w.respond(m.Item, from) {
		stripe.Unlock()
		return
	}
	st.mergeFlow(m.FlowVec)
	stripe.Unlock()
	w.wake()
}
