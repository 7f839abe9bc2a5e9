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
// dispatches by message kind. Each handler serializes on the target
// item's admission stripe — per-item arrival order, which is all
// Conc1 needs; under Conc2 the single stripe restores the paper's
// whole-site "processed in the order of their arrival" model.
func (s *Site) handle(env *wire.Envelope) {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.Up() {
		return
	}

	s.lamport.Observe(env.Lamport)
	s.vm.OnAck(env.From, env.AckUpTo)

	switch m := env.Msg.(type) {
	case *wire.Request:
		s.handleRequest(env.From, m)
	case *wire.Vm:
		s.handleVm(env.From, m)
	case *wire.VmBatch:
		s.handleVmBatch(env.From, m)
	case *wire.VmAck:
		s.vm.OnAck(env.From, m.UpTo)
	case *wire.DemandAdvert:
		s.demand.observeAdvert(env.From, m.Entries, s.cfg.Clock.Now())
		s.obsm.advertsRecv.Inc()
	case *wire.QuotaQuery:
		s.send(env.From, &wire.QuotaReply{
			Nonce: m.Nonce,
			Item:  m.Item,
			Value: s.cfg.DB.Value(m.Item),
			Known: true,
		})
	default:
		// Baseline traffic or introspection replies: not ours.
	}
}

// send stamps and dispatches one message with piggybacked Lamport
// clock and cumulative Vm ack (§4.2).
func (s *Site) send(to ident.SiteID, msg wire.Msg) {
	env := &wire.Envelope{
		To:      to,
		Lamport: tstamp.Make(s.lamport.Current(), s.cfg.ID),
		AckUpTo: s.vm.AckFor(to),
		Msg:     msg,
	}
	// A send error is indistinguishable from message loss to the
	// protocol, and the failure model already covers loss; it is only
	// counted (dvp_site_send_errors_total).
	if err := s.cfg.Endpoint.Send(env); err != nil {
		s.obsm.forPeer(to).sendErrs.Inc()
	}
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

// reportRds fires the OnRds hook for one redistribution half. Zero
// deltas (full-read "I hold nothing" responses) are not halves of
// anything and are skipped.
func (s *Site) reportRds(ts tstamp.TS, item ident.ItemID, delta core.Value) {
	if s.cfg.OnRds != nil && delta != 0 {
		s.cfg.OnRds(RdsInfo{TS: ts, Site: s.cfg.ID, Item: item, Delta: delta})
	}
}
