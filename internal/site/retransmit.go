package site

import "dvp/internal/wire"

// retransmitCapFactor caps the adaptive per-peer retransmission
// backoff: sweeps toward a peer that never acks stretch from
// RetransmitEvery (or 2× the observed ack RTT, if larger) by doubling
// up to this many times RetransmitEvery, and snap back to the base
// pace on the first cumulative ack that advances the channel.
const retransmitCapFactor = 8

// maxVmPerEnvelope bounds how many Vm one retransmission envelope
// carries (stays well inside the wire frame limit).
const maxVmPerEnvelope = 64

// retransmitLoop periodically resends every overdue Vm — the
// guaranteed-delivery engine behind "a Vm is never lost" (§4.2). A Vm
// is overdue once it has gone unacknowledged for longer than an ack
// should take (vmsg Overdue: RetransmitEvery, or twice the ack-RTT
// EWMA if longer), so a lossless channel resends nothing. All overdue
// Vm toward one peer coalesce into VmBatch envelopes: the
// retransmission tick fires them together anyway, so one frame (and
// one piggybacked ack back) carries the lot. The tick is only an
// upper bound on the pace: per-peer adaptive backoff (vmsg
// DueRetransmit, seeded the same way, doubling to retransmitCapFactor
// ticks, reset by the first advancing ack) decides whether a given
// peer's sweep actually fires, so a long-dead peer costs one sweep per
// retransmitCapFactor ticks instead of one per tick.
//
// The tick is also the force of last resort for the receiving side:
// an acceptance nobody's force has carried yet is forced and acked
// here (forceAccepts), so an idle site acks at most one tick late.
func (s *Site) retransmitLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	base := s.cfg.RetransmitEvery
	for {
		select {
		case <-stop:
			return
		case <-s.cfg.Clock.After(base):
		}
		s.forceAccepts()
		now := s.cfg.Clock.Now()
		for _, p := range s.peersExceptSelf() {
			vms := s.vm.Overdue(p, now, base)
			if len(vms) == 0 || !s.vm.DueRetransmit(p, now, base, retransmitCapFactor*base) {
				continue
			}
			if !s.Up() {
				return
			}
			s.obsm.retx.Add(uint64(len(vms)))
			for len(vms) > 0 {
				n := min(len(vms), maxVmPerEnvelope)
				if n == 1 {
					s.sendVm(vms[0])
				} else {
					batch := &wire.VmBatch{Vms: make([]wire.Vm, n)}
					for i, v := range vms[:n] {
						batch.Vms[i] = wireVm(v)
					}
					s.send(p, batch)
				}
				vms = vms[n:]
			}
		}
	}
}
