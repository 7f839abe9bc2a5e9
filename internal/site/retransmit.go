package site

import "dvp/internal/wire"

// maxVmPerEnvelope bounds how many Vm one retransmission envelope
// carries (stays well inside the wire frame limit).
const maxVmPerEnvelope = 64

// retransmitLoop periodically resends every unacknowledged Vm that is
// due — the guaranteed-delivery engine behind "a Vm is never lost"
// (§4.2). vmsg's Due states the rule: a Vm is resent once it has gone
// unacknowledged for longer than an ack should take, so a lossless
// channel resends nothing, and per-peer backoff stretches the sweeps
// toward a silent peer up to vmsg.RetransmitCap ticks apart until an
// advancing ack resets them. All due Vm toward one peer coalesce into
// VmBatch envelopes: the retransmission tick fires them together
// anyway, so one frame (and one piggybacked ack back) carries the lot.
//
// The tick is also the receiving side's last resort: an acceptance
// nobody's force has carried yet is forced here, and a cumulative ack
// that no envelope has piggybacked since it advanced leaves in a VmAck
// of its own (forceAccepts), so a quiet link is acked at most one tick
// late. A crash's stop stops the pending tick with the loop.
func (s *Site) retransmitLoop(stop <-chan struct{}) {
	base := s.cfg.RetransmitEvery
	for {
		tick := s.cfg.Clock.NewTimer(base)
		select {
		case <-stop:
			tick.Stop()
			return
		case <-tick.C():
		}
		s.forceAccepts()
		now := s.cfg.Clock.Now()
		for _, p := range s.peersExceptSelf() {
			vms := s.vm.Due(p, now, base)
			if len(vms) == 0 {
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
