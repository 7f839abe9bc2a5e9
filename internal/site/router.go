package site

import (
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// This file is the message router: the network entry point that folds
// piggybacked state and dispatches by message kind, plus the outbound
// send helpers. Handlers (inbound_request.go, inbound_vm.go) touch
// only admission stripes, the item state under them and atomics —
// never s.mu.

// handle is the network entry point. It folds the piggybacked Lamport
// clock and Vm acknowledgement into local state (§4.2), then
// dispatches by message kind. A clock raised past its reservation is
// reserved anew first, so every stamp a handler may store or pass on —
// a request's, stamped on the item it asks for — is covered by a
// stable record before the handler runs. Each handler serializes on the
// target item's admission stripe — per-item arrival order, which is all
// Conc1 needs; under Conc2 the single stripe restores the paper's
// whole-site "processed in the order of their arrival" model.
func (s *Site) handle(env *wire.Envelope) {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.Up() {
		return
	}

	s.lamport.Observe(env.Lamport)
	if s.reserve(s.lamport.Current()) != nil {
		return
	}
	s.vm.OnAck(env.From, env.AckUpTo)

	switch m := env.Msg.(type) {
	case *wire.Request:
		s.handleRequest(env.From, m)
	case *wire.NoShare:
		s.handleNoShare(env.From, m)
	case *wire.Vm:
		s.handleVm(env.From, m)
	case *wire.VmBatch:
		s.handleVmBatch(env.From, m)
	case *wire.VmAck:
		s.vm.OnAck(env.From, m.UpTo)
	case *wire.DemandAdvert:
		s.demand.observeAdvert(env.From, m.Entries, s.cfg.Clock.Now())
		s.obsm.advertsRecv.Inc()
	default:
		// Baseline traffic: not ours.
	}
}

// send stamps and dispatches one message with piggybacked Lamport
// clock and cumulative Vm ack (§4.2). The clock it piggybacks is capped
// at the stable reservation: an acceptance's stamp may run past it
// until its reservation rides the next force (processVm), and no
// counter above the reservation leaves the site. The ack is taken
// through the channel's carried cursor (CarryAck): what this envelope
// carries, no standalone VmAck need repeat (forceAccepts).
func (s *Site) send(to ident.SiteID, msg wire.Msg) {
	env := &wire.Envelope{
		To:      to,
		Lamport: tstamp.Make(min(s.lamport.Current(), s.lamport.Bound()), s.cfg.ID),
		AckUpTo: s.vm.CarryAck(to),
		Msg:     msg,
	}
	// A send error is indistinguishable from message loss to the
	// protocol, and the failure model already covers loss; it is only
	// counted (dvp_site_send_errors_total).
	if err := s.cfg.Endpoint.Send(env); err != nil {
		s.obsm.forPeer(to).sendErrs.Inc()
	}
}

// sendAck sends to a standalone cumulative ack, for a peer that cannot
// wait for the next envelope to carry it.
func (s *Site) sendAck(to ident.SiteID) {
	s.send(to, &wire.VmAck{UpTo: s.vm.AckFor(to)})
}

// sendVm transmits one real message for a virtual message.
func (s *Site) sendVm(v wal.VmOut) {
	m := wireVm(v)
	s.send(v.To, &m)
}

// wireVm is the real message that carries virtual message v.
func wireVm(v wal.VmOut) wire.Vm {
	return wire.Vm{
		Seq: v.Seq, Item: v.Item, Amount: v.Amount, ReqTxn: v.ReqTxn,
		FlowVec: v.FlowVec, Trace: v.Trace,
	}
}

// reportRds fires the OnRds hook for one redistribution half.
func (s *Site) reportRds(ts tstamp.TS, item ident.ItemID, delta core.Value) {
	if s.cfg.OnRds != nil {
		s.cfg.OnRds(RdsInfo{TS: ts, Site: s.cfg.ID, Item: item, Delta: delta})
	}
}
