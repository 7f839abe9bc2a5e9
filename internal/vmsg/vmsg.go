// Package vmsg implements the paper's Virtual Messages (§4.2).
//
// A virtual message is *defined by log records*, not by packets: it
// comes into existence when the sender's `[database-actions,
// message-sequence]` record reaches stable storage, and ceases to
// exist when the receiver logs its acceptance. In between, any number
// of real messages may carry it; they may all be lost, duplicated or
// reordered — the Vm survives, because the sender's log keeps
// retransmitting it and the receiver's log deduplicates it. "A Vm is
// never lost, although several real messages corresponding to it may
// be sent during its lifespan."
//
// Manager tracks, per peer channel:
//
//   - outbound: the next sequence number, two sets of created-but-
//     unacknowledged Vm — the enqueued set (the create record is in the
//     log's queue: the value has left the store, so the Vm counts as
//     outstanding, but it must not be sent) and the retransmission set
//     (the create record is stable: the Vm exists, is sent, and is
//     resent until acknowledged) — and the cumulative acknowledgement
//     received. A site deducts a Vm's value when its create record is
//     enqueued and sends it only once that record is stable, mirroring
//     the inbound pair below;
//   - inbound: two sets of sequence numbers, each a low-water mark
//     plus sparse out-of-order tail — the applied set (deduplication:
//     the value has been credited) and the stable set (the acceptance
//     record is on stable storage), whose low-water mark is the
//     cumulative ack to piggyback. A site credits a Vm when its
//     acceptance record is enqueued and acknowledges it only once that
//     record is stable, so the stable set trails the applied one by
//     the records still in the log's queue — and the highest cursor
//     an envelope toward the peer has carried (CarryAck), so that a
//     site sends a standalone ack only to a peer no traffic has
//     carried the cursor to (Uncarried).
//
// The Manager holds protocol state only; logging, database effects,
// and actual sends belong to the site layer, which makes the state
// transitions here purely deterministic and easy to test. Its one
// notion of time — a Vm's send instant, the ack round trip measured
// from it, a Vm's age for retransmission — comes from one clock, the
// site's (SetClock).
package vmsg

import (
	"slices"
	"sort"
	"sync"
	"time"

	"dvp/internal/ident"
	"dvp/internal/metrics"
	"dvp/internal/obs"
	"dvp/internal/vclock"
	"dvp/internal/wal"
)

// Manager tracks Vm channel state for one site. Safe for concurrent
// use.
type Manager struct {
	mu    sync.Mutex
	out   map[ident.SiteID]*outChannel
	in    map[ident.SiteID]*inChannel
	clock vclock.Clock

	// Observability (see Instrument): nil when not instrumented.
	reg  *obs.Registry
	site string

	// onRetire observes each outbound Vm leaving the retransmission
	// set under a cumulative ack (see SetRetireHook); nil when unset.
	onRetire func(peer ident.SiteID, v wal.VmOut)
}

type outChannel struct {
	nextSeq uint64 // last allocated
	cumAck  uint64 // highest cumulative ack received
	// enqueued holds Vm whose create record is not yet known stable;
	// pending (the retransmission set) those whose record is.
	enqueued map[uint64]wal.VmOut
	pending  map[uint64]wal.VmOut

	// sentAt remembers each pending Vm's send instant (when it joined
	// the retransmission set; none for one restored from a checkpoint);
	// ackRTT (nil when the manager is not instrumented) additionally
	// exports each Vm's lifespan — first send to cumulative ack, i.e.
	// the full guaranteed-delivery round trip including
	// retransmissions — as a histogram.
	ackRTT *metrics.Histogram
	sentAt map[uint64]time.Time

	// Adaptive retransmission pacing (see Due): rttEWMA is the smoothed
	// observed ack round trip; retxAt is when the next sweep toward
	// this peer may fire, retxGap the current backoff between sweeps
	// (0 = fresh channel or just-acked, fire at base pace). sweeps
	// counts the sweeps that fired.
	rttEWMA time.Duration
	retxAt  time.Time
	retxGap time.Duration
	sweeps  uint64
}

type inChannel struct {
	applied seqSet // credited: never accept again
	stable  seqSet // acceptance record stable: may be acknowledged
	carried uint64 // highest cumulative ack an envelope to the peer carried
}

// seqSet is a set of sequence numbers dense from 1: everything up to
// low, plus a sparse out-of-order tail.
type seqSet struct {
	low   uint64
	above map[uint64]bool
}

func (s *seqSet) has(seq uint64) bool { return seq <= s.low || s.above[seq] }

// add inserts seq and advances low over any contiguous run.
func (s *seqSet) add(seq uint64) {
	if s.has(seq) {
		return
	}
	if s.above == nil {
		s.above = make(map[uint64]bool)
	}
	s.above[seq] = true
	s.advance()
}

func (s *seqSet) advance() {
	for s.above[s.low+1] {
		s.low++
		delete(s.above, s.low)
	}
}

// restore merges a checkpointed (low, above) pair into the set.
func (s *seqSet) restore(low uint64, above []uint64) {
	if low > s.low {
		s.low = low
		s.advance() // the raised low may have met the sparse tail
	}
	for _, seq := range above {
		s.add(seq)
	}
}

// NewManager returns an empty channel-state manager on the real clock.
func NewManager() *Manager {
	return &Manager{
		out:   make(map[ident.SiteID]*outChannel),
		in:    make(map[ident.SiteID]*inChannel),
		clock: vclock.Real{},
	}
}

// SetClock makes c the manager's clock: send instants and ack round
// trips are read from it. A site passes its own clock, the one its
// retransmission sweeps are paced by.
func (m *Manager) SetClock(c vclock.Clock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock = c
}

// Clock returns the manager's clock (SetClock): recovery times itself
// on it, the site's.
func (m *Manager) Clock() vclock.Clock {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// Reset discards all channel state — the volatile state of a crashed
// site, about to be rebuilt from the stable log by recovery. The
// manager object itself stays valid (concurrent readers see an empty
// manager, never a torn one).
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.out = make(map[ident.SiteID]*outChannel)
	m.in = make(map[ident.SiteID]*inChannel)
}

// Instrument registers this manager's channel metrics with reg,
// labelled site=site and peer=<id>: per-peer pending-set depth
// (dvp_vmsg_pending, registered for every peer up front so idle
// channels still expose 0) and Vm ack round-trip
// (dvp_vmsg_ack_seconds, first send to cumulative ack,
// retransmissions included). Event counters (created/accepted/duplicates) live at the
// site layer, which distinguishes live protocol traffic from recovery
// replay.
func (m *Manager) Instrument(reg *obs.Registry, site string, peers []ident.SiteID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.site = site
	for _, p := range peers {
		peer := p
		reg.GaugeFunc("dvp_vmsg_pending",
			func() float64 { return float64(m.PendingCount(peer)) },
			"site", site, "peer", peer.String())
	}
	for peer, c := range m.out {
		m.instrumentOutLocked(peer, c)
	}
}

// instrumentOutLocked attaches metric handles to one outbound channel.
// Called with m.mu held; the registered gauge function re-acquires
// m.mu only at exposition time, with no registry lock held.
func (m *Manager) instrumentOutLocked(peer ident.SiteID, c *outChannel) {
	if m.reg == nil {
		return
	}
	c.ackRTT = m.reg.Histogram("dvp_vmsg_ack_seconds", "site", m.site, "peer", peer.String())
	m.reg.GaugeFunc("dvp_vmsg_pending",
		func() float64 { return float64(m.PendingCount(peer)) },
		"site", m.site, "peer", peer.String())
}

// PendingCount returns the number of unacknowledged outbound Vm toward
// peer (the retransmission-set depth).
func (m *Manager) PendingCount(peer ident.SiteID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.out[peer]; ok {
		return len(c.pending)
	}
	return 0
}

func (m *Manager) outChan(peer ident.SiteID) *outChannel {
	c, ok := m.out[peer]
	if !ok {
		c = &outChannel{
			enqueued: make(map[uint64]wal.VmOut),
			pending:  make(map[uint64]wal.VmOut),
			sentAt:   make(map[uint64]time.Time),
		}
		m.out[peer] = c
		m.instrumentOutLocked(peer, c)
	}
	return c
}

func (m *Manager) inChan(peer ident.SiteID) *inChannel {
	c, ok := m.in[peer]
	if !ok {
		c = &inChannel{}
		m.in[peer] = c
	}
	return c
}

// --- outbound --------------------------------------------------------------

// AllocSeq reserves the next sequence number toward peer. The caller
// embeds it in the VmCreate log record before registering the Vm
// (CreateEnqueued, or Created).
func (m *Manager) AllocSeq(peer ident.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.outChan(peer)
	c.nextSeq++
	return c.nextSeq
}

// CreateEnqueued registers Vm whose VmCreate record has taken its
// place in the log but is not known stable: the value has left the
// store, so HasOutstanding reports them and checkpoints carry them,
// but they are not in the retransmission set — nothing may send them
// before CreateStable.
func (m *Manager) CreateEnqueued(msgs []wal.VmOut) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range msgs {
		c := m.outChan(v.To)
		if v.Seq > c.nextSeq {
			c.nextSeq = v.Seq // recovery replay can run ahead of alloc
		}
		if v.Seq > c.cumAck {
			c.enqueued[v.Seq] = v
		}
	}
}

// CreateStable records that the VmCreate record of msgs is stable —
// the Vm exist from that instant — moving them into the retransmission
// set with the manager's clock reading as their send instant: the
// caller sends them next.
func (m *Manager) CreateStable(msgs []wal.VmOut) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	for _, v := range msgs {
		c := m.outChan(v.To)
		delete(c.enqueued, v.Seq)
		if v.Seq > c.cumAck {
			c.pending[v.Seq] = v
			c.sentAt[v.Seq] = now
		}
	}
}

// Created is CreateEnqueued and CreateStable at once: for Vm whose
// create record is already stable (a record replayed by recovery, a
// synchronous append).
func (m *Manager) Created(msgs []wal.VmOut) {
	m.CreateEnqueued(msgs)
	m.CreateStable(msgs)
}

// SetRetireHook installs fn to observe every outbound Vm retired by a
// cumulative acknowledgement (the ack-piggyback hop completing the
// virtual message's lifespan). fn is called outside the manager's lock,
// in seq order per ack; it must not call back into the Manager's
// mutating paths for the same peer synchronously.
func (m *Manager) SetRetireHook(fn func(peer ident.SiteID, v wal.VmOut)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onRetire = fn
}

// OnAck processes a cumulative acknowledgement from peer: every Vm
// with seq ≤ upTo is complete and leaves the retransmission set.
func (m *Manager) OnAck(peer ident.SiteID, upTo uint64) {
	m.mu.Lock()
	c := m.outChan(peer)
	if upTo <= c.cumAck {
		m.mu.Unlock()
		return
	}
	c.cumAck = upTo
	// A cumulative ack that advances the channel is proof the peer is
	// back (or never left): snap retransmission pacing to the base
	// interval instead of waiting out the backoff cap.
	c.retxGap = 0
	c.retxAt = time.Time{}
	now := m.clock.Now()
	var retired []wal.VmOut
	for seq, v := range c.pending {
		if seq <= upTo {
			delete(c.pending, seq)
			if m.onRetire != nil {
				retired = append(retired, v)
			}
			if at, ok := c.sentAt[seq]; ok {
				rtt := now.Sub(at)
				// EWMA with α = 0.2: smooth enough to ride out one
				// retransmitted straggler, fresh enough to track a
				// congested link within a few acks.
				if c.rttEWMA == 0 {
					c.rttEWMA = rtt
				} else {
					c.rttEWMA = (4*c.rttEWMA + rtt) / 5
				}
				if c.ackRTT != nil {
					c.ackRTT.Record(rtt)
				}
				delete(c.sentAt, seq)
			}
		}
	}
	fn := m.onRetire
	m.mu.Unlock()
	if fn == nil {
		return
	}
	sort.Slice(retired, func(i, j int) bool { return retired[i].Seq < retired[j].Seq })
	for _, v := range retired {
		fn(peer, v)
	}
}

// PendingTo returns the unacknowledged Vm toward peer in seq order —
// the retransmission set (Vm whose create record is still only
// enqueued are not in it).
func (m *Manager) PendingTo(peer ident.SiteID) []wal.VmOut {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.out[peer]
	if !ok {
		return nil
	}
	return sortedVm(c.pending, func(uint64) bool { return true })
}

// sortedVm returns the Vm of set whose seq passes keep, in seq order.
func sortedVm(set map[uint64]wal.VmOut, keep func(seq uint64) bool) []wal.VmOut {
	out := make([]wal.VmOut, 0, len(set))
	for seq, v := range set {
		if keep(seq) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// PendingAll returns every unacknowledged outbound Vm, across peers.
func (m *Manager) PendingAll() []wal.VmOut {
	m.mu.Lock()
	peers := make([]ident.SiteID, 0, len(m.out))
	for p := range m.out {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	var out []wal.VmOut
	for _, p := range ident.SortSites(peers) {
		out = append(out, m.PendingTo(p)...)
	}
	return out
}

// HasOutstanding reports whether any unacknowledged outbound Vm
// carries item — stable or only enqueued: either way its value has
// left the store. A site must decline to honor a full-read request
// while this holds (paper §5: "the fact that no outstanding Vm is
// there assures that the complete Π⁻¹(d) is procured").
func (m *Manager) HasOutstanding(item ident.ItemID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.out {
		for _, set := range []map[uint64]wal.VmOut{c.enqueued, c.pending} {
			for _, v := range set {
				if v.Item == item {
					return true
				}
			}
		}
	}
	return false
}

// OutSeq returns the last allocated sequence toward peer.
func (m *Manager) OutSeq(peer ident.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.out[peer]; ok {
		return c.nextSeq
	}
	return 0
}

// CumAck returns the highest cumulative ack received from peer.
func (m *Manager) CumAck(peer ident.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.out[peer]; ok {
		return c.cumAck
	}
	return 0
}

// RetransmitCap caps the per-peer retransmission backoff, in multiples
// of the base interval: sweeps toward a peer that never acks stretch by
// doubling up to RetransmitCap × base.
const RetransmitCap = 8

// Due returns, in seq order, the Vm a retransmission sweep toward peer
// resends at now, and advances the peer's pacing when there are any.
//
// A Vm is old enough once it was sent at least the seed gap before
// now — max(base, 2× the ack-RTT EWMA), the time an ack of a delivered
// Vm should take to come back — so without loss nothing is ever
// resent. The seed gap is capped at RetransmitCap × base, as the sweep
// gap is: the EWMA takes in each Vm's whole lifespan, so one Vm acked
// only after an outage would otherwise hold the next one's first resend
// back by twice the outage. The send instant is the first send's, so a
// Vm stays old enough until acknowledged; one restored from a
// checkpoint has none and is old enough at once.
//
// The first sweep after a channel gains something to resend — or after
// a cumulative ack advanced it (a heal) — fires at once; each fired
// sweep then doubles the gap to the next, from the seed gap up to
// RetransmitCap × base. A peer that never acks therefore costs one
// sweep per cap interval instead of one per tick, while a healthy
// channel keeps the base pace: its acks reset the gap before the next
// tick. A sweep inside the gap, or with nothing old enough, returns
// nothing and changes no state.
func (m *Manager) Due(peer ident.SiteID, now time.Time, base time.Duration) []wal.VmOut {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.out[peer]
	if !ok || now.Before(c.retxAt) {
		return nil
	}
	seed := min(max(base, 2*c.rttEWMA), RetransmitCap*base)
	due := sortedVm(c.pending, func(seq uint64) bool { return now.Sub(c.sentAt[seq]) >= seed })
	if len(due) == 0 {
		return nil
	}
	gap := seed
	if c.retxGap != 0 {
		gap = 2 * c.retxGap
	}
	c.retxGap = min(gap, RetransmitCap*base)
	c.retxAt = now.Add(c.retxGap)
	c.sweeps++
	return due
}

// Sweeps returns how many retransmission sweeps toward peer fired.
func (m *Manager) Sweeps(peer ident.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.out[peer]; ok {
		return c.sweeps
	}
	return 0
}

// --- inbound ---------------------------------------------------------------

// ShouldAccept reports whether the Vm (from, seq) is new. It does not
// mark it: the caller first places the acceptance record in the log,
// then marks — a crash in between re-delivers, and the log replay
// marks it, so acceptance stays exactly-once.
func (m *Manager) ShouldAccept(from ident.SiteID, seq uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.inChan(from).applied.has(seq)
}

// MarkApplied records that (from, seq) has been credited, its
// acceptance record enqueued but not known stable: a second copy is a
// duplicate from here on, yet no acknowledgement covers it until
// MarkStable.
func (m *Manager) MarkApplied(from ident.SiteID, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inChan(from).applied.add(seq)
}

// MarkStable records that the acceptance record of (from, seq) is on
// stable storage, advancing the cumulative acknowledgement over any
// contiguous run.
func (m *Manager) MarkStable(from ident.SiteID, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inChan(from).stable.add(seq)
}

// MarkAccepted is MarkApplied and MarkStable at once: for an
// acceptance whose record is already stable (a synchronous append, a
// record replayed by recovery).
func (m *Manager) MarkAccepted(from ident.SiteID, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.inChan(from)
	c.applied.add(seq)
	c.stable.add(seq)
}

// AckFor returns the cumulative acknowledgement to send toward peer:
// every inbound Vm with seq ≤ AckFor(peer) has been accepted and its
// acceptance record is stable ("all messages upto and including the
// message m have been received and processed safely", §4.2).
func (m *Manager) AckFor(peer ident.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.in[peer]; ok {
		return c.stable.low
	}
	return 0
}

// CarryAck is AckFor for an envelope about to leave toward peer: it
// returns the cumulative acknowledgement and remembers that an envelope
// carried it, so Uncarried leaves peer out until the cursor moves on.
func (m *Manager) CarryAck(peer ident.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.in[peer]
	if !ok {
		return 0
	}
	c.carried = max(c.carried, c.stable.low)
	return c.stable.low
}

// Uncarried returns, in canonical order, the peers whose cumulative
// acknowledgement is ahead of the highest one an envelope carried to
// them (CarryAck): the acks no traffic has piggybacked yet.
func (m *Manager) Uncarried() []ident.SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []ident.SiteID
	for p, c := range m.in {
		if c.stable.low > c.carried {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// Accepted reports whether (from, seq) has been credited — the
// receiver-side half of the global conservation check.
func (m *Manager) Accepted(from ident.SiteID, seq uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.in[from]
	return ok && c.applied.has(seq)
}

// --- recovery --------------------------------------------------------------

// SnapshotChannels captures the complete per-peer channel state for a
// checkpoint record: outbound cursor, cumulative ack, every
// unacknowledged outbound Vm, and the inbound applied set. The
// enqueued Vm and the applied set are the right ones: the checkpoint
// record follows every enqueued create and acceptance record in the
// log, so it is stable only once they all are — and compaction behind
// it drops those records, so it must carry what they say.
func (m *Manager) SnapshotChannels() []wal.VmChannelState {
	m.mu.Lock()
	defer m.mu.Unlock()
	peerSet := make(map[ident.SiteID]bool)
	for p := range m.out {
		peerSet[p] = true
	}
	for p := range m.in {
		peerSet[p] = true
	}
	ids := make([]ident.SiteID, 0, len(peerSet))
	for p := range peerSet {
		ids = append(ids, p)
	}
	out := make([]wal.VmChannelState, 0, len(ids))
	for _, p := range ident.SortSites(ids) {
		ch := wal.VmChannelState{Peer: p}
		if c, ok := m.out[p]; ok {
			ch.OutSeq = c.nextSeq
			ch.CumAck = c.cumAck
			for _, set := range []map[uint64]wal.VmOut{c.enqueued, c.pending} {
				for _, v := range set {
					ch.Pending = append(ch.Pending, v)
				}
			}
			sort.Slice(ch.Pending, func(i, j int) bool { return ch.Pending[i].Seq < ch.Pending[j].Seq })
		}
		if c, ok := m.in[p]; ok {
			ch.InLow = c.applied.low
			for s := range c.applied.above {
				ch.InAbove = append(ch.InAbove, s)
			}
			sort.Slice(ch.InAbove, func(i, j int) bool { return ch.InAbove[i] < ch.InAbove[j] })
		}
		out = append(out, ch)
	}
	return out
}

// RestoreChannels reloads channel state from a checkpoint. Recovery
// calls it before replaying the log suffix, whose VmCreate/VmAccept
// records then advance the restored state idempotently. Whatever a
// checkpoint read back from the log lists is stable: its outbound Vm
// join the retransmission set (with no send instant, so the first
// sweep resends them), and both inbound sets take its accepted ones.
func (m *Manager) RestoreChannels(chs []wal.VmChannelState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ch := range chs {
		oc := m.outChan(ch.Peer)
		if ch.OutSeq > oc.nextSeq {
			oc.nextSeq = ch.OutSeq
		}
		if ch.CumAck > oc.cumAck {
			oc.cumAck = ch.CumAck
		}
		for _, v := range ch.Pending {
			if v.Seq > oc.cumAck {
				oc.pending[v.Seq] = v
			}
		}
		ic := m.inChan(ch.Peer)
		ic.applied.restore(ch.InLow, ch.InAbove)
		ic.stable.restore(ch.InLow, ch.InAbove)
	}
}
