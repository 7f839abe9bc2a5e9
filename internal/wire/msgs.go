package wire

import (
	"fmt"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// Kind discriminates the message types carried in an Envelope.
type Kind uint8

// Message kinds. The first group is the DvP/Vm protocol of the paper;
// the second group serves the traditional baselines (strict 2PL +
// two-phase commit, quorum and primary-copy replica control); the kinds
// appended after them serve the protocol too: Vm batches, demand
// gossip and the NoShare answer.
const (
	// KRequest asks a remote site to surrender part (or, for a full
	// read, all) of its quota for an item (paper §5 step 2).
	KRequest Kind = iota + 1
	// KVm carries value between sites: the real message realizing a
	// virtual message (paper §4.2).
	KVm
	// KVmAck is a standalone cumulative acknowledgement. Acks ride
	// piggybacked in the Envelope's AckUpTo; a site sends a VmAck only
	// where no envelope has carried its cursor by the retransmission
	// tick, and at once for a duplicate, a cc decline and a restart
	// (paper §4.2 assumes piggybacked acks plus standard
	// window-protocol machinery).
	KVmAck

	// KLockReq / KLockReply: baseline replica lock traffic.
	KLockReq
	KLockReply
	// Kind 6 is reserved: it numbered a baseline write message that
	// nothing sent. Kinds are numbered by position, so the gap keeps
	// every later kind's number, and the envelope magic with it.
	_
	// KPrepare / KVote / KDecision / KDecisionAck: two-phase commit.
	KPrepare
	KVote
	KDecision
	KDecisionAck
	// KReadReq / KReadReply: baseline versioned replica reads
	// (quorum consensus needs version numbers).
	KReadReq
	KReadReply

	// KQWrite / KQWriteAck: quorum-consensus replica writes
	// (absolute value + version, applied at a write quorum).
	KQWrite
	KQWriteAck
	// KForward / KForwardReply: primary-copy operation forwarding.
	KForward
	KForwardReply

	// Kinds 17 and 18 are reserved: they numbered a quota query and its
	// reply that nothing sent (the control port's QUOTA reads a site's
	// quota). The gap keeps every later kind's number.
	_
	_

	// KVmBatch coalesces several pending Vm toward one site into a
	// single envelope (retransmission piggybacking) — the virtual
	// messages stay individually sequenced; only their carriage
	// shares a frame. Appended at the enum tail to keep existing
	// frames and fuzz corpora stable.
	KVmBatch

	// KDemandAdvert carries a site's per-item demand estimate and
	// current holding to a peer — the gossip feeding demand-driven
	// rebalancing. Advisory only: losing one costs nothing (the next
	// interval resends), so it needs no ack or retransmission state.
	// Appended at the enum tail like KVmBatch.
	KDemandAdvert

	// KNoShare answers a full-read request from a site that holds none
	// of the item and has no Vm carrying it away: an unlogged reply in
	// place of a Vm with nothing to carry.
	KNoShare
)

func (k Kind) String() string {
	switch k {
	case KRequest:
		return "request"
	case KVm:
		return "vm"
	case KVmAck:
		return "vmack"
	case KLockReq:
		return "lockreq"
	case KLockReply:
		return "lockreply"
	case KPrepare:
		return "prepare"
	case KVote:
		return "vote"
	case KDecision:
		return "decision"
	case KDecisionAck:
		return "decisionack"
	case KReadReq:
		return "readreq"
	case KReadReply:
		return "readreply"
	case KQWrite:
		return "qwrite"
	case KQWriteAck:
		return "qwriteack"
	case KForward:
		return "forward"
	case KForwardReply:
		return "forwardreply"
	case KVmBatch:
		return "vmbatch"
	case KDemandAdvert:
		return "demandadvert"
	case KNoShare:
		return "noshare"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Msg is one protocol message. Encode appends the body to w; decode is
// dispatched by Kind in DecodeMsg.
type Msg interface {
	Kind() Kind
	Encode(w *Writer)
}

// --- DvP protocol messages -------------------------------------------------

// Request asks the receiver to surrender quota for Item. Want is the
// shortfall the requester needs; FullRead requests the receiver's
// entire holding and additionally requires the receiver to have no
// outstanding Vm for the item (paper §5). Txn identifies (and
// timestamps, under Conc1) the requesting transaction.
type Request struct {
	Txn      tstamp.TS
	Item     ident.ItemID
	Want     core.Value
	FullRead bool
	// Trace is the causal-tracing context (zero when the origin site
	// runs untraced).
	Trace TraceCtx
}

// Kind implements Msg.
func (*Request) Kind() Kind { return KRequest }

// Encode implements Msg.
func (m *Request) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.I64(int64(m.Want))
	w.Bool(m.FullRead)
	encodeTraceCtx(w, m.Trace)
}

func decodeRequest(r *Reader) *Request {
	return &Request{
		Txn:      r.TS(),
		Item:     ident.ItemID(r.String()),
		Want:     core.Value(r.I64()),
		FullRead: r.Bool(),
		Trace:    decodeTraceCtx(r),
	}
}

// Vm is the real message realizing a virtual message: Amount units of
// Item moving from the sender to the receiver. Seq is the position in
// the sender→receiver Vm channel (dense, starting at 1); the receiver
// accepts Vm exactly once, in any order, by tracking accepted seqs.
// ReqTxn echoes the transaction whose Request prompted this Vm (zero
// for proactive/redistribution transfers), letting the receiver wake
// the right waiting transaction.
// FlowEntry is one component of a value-flow vector: Count writers at
// Site are embodied in the carried value (serializability
// instrumentation; see internal/site's flow clocks).
type FlowEntry struct {
	Site  ident.SiteID
	Count uint64
}

// Vm is the real message realizing a virtual message.
type Vm struct {
	Seq    uint64
	Item   ident.ItemID
	Amount core.Value
	ReqTxn tstamp.TS
	// FlowVec is the sender's value-flow vector for Item at grant
	// time. It rides with the value so the receiver's vector merges
	// everything its quota now embodies.
	FlowVec []FlowEntry
	// Trace is the causal-tracing context of the transfer (zero when
	// untraced).
	Trace TraceCtx
}

// Kind implements Msg.
func (*Vm) Kind() Kind { return KVm }

// Encode implements Msg. It is also each member's encoding in a
// VmBatch.
func (m *Vm) Encode(w *Writer) {
	w.U64(m.Seq)
	w.String(string(m.Item))
	w.I64(int64(m.Amount))
	w.TS(m.ReqTxn)
	EncodeFlowVec(w, m.FlowVec)
	encodeTraceCtx(w, m.Trace)
}

func decodeVm(r *Reader) *Vm {
	return &Vm{
		Seq:     r.U64(),
		Item:    ident.ItemID(r.String()),
		Amount:  core.Value(r.I64()),
		ReqTxn:  r.TS(),
		FlowVec: DecodeFlowVec(r),
		Trace:   decodeTraceCtx(r),
	}
}

// EncodeFlowVec appends a flow vector (length-prefixed site/count
// pairs).
func EncodeFlowVec(w *Writer, vec []FlowEntry) {
	w.U64(uint64(len(vec)))
	for _, e := range vec {
		w.Site(e.Site)
		w.U64(e.Count)
	}
}

// DecodeFlowVec parses a flow vector.
func DecodeFlowVec(r *Reader) []FlowEntry {
	n := r.Count(1 << 16)
	if n == 0 {
		return nil
	}
	out := make([]FlowEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, FlowEntry{Site: r.Site(), Count: r.U64()})
	}
	return out
}

// VmBatch carries several Vm toward the same receiver in one envelope.
// Each carried Vm keeps its own channel sequence number and is
// accepted (or deduplicated) independently; batching is purely a
// carriage optimization for the retransmission path, where every
// pending Vm toward a peer fires at once anyway.
type VmBatch struct {
	Vms []Vm
}

// maxVmBatch bounds decoded batch length (a frame is ≤ maxFrame bytes
// anyway; this keeps hostile length prefixes from over-allocating).
const maxVmBatch = 1 << 12

// Kind implements Msg.
func (*VmBatch) Kind() Kind { return KVmBatch }

// Encode implements Msg: the count, then each member's Vm encoding.
func (m *VmBatch) Encode(w *Writer) {
	w.U64(uint64(len(m.Vms)))
	for i := range m.Vms {
		m.Vms[i].Encode(w)
	}
}

func decodeVmBatch(r *Reader) *VmBatch {
	n := r.Count(maxVmBatch)
	if r.Err() != nil {
		return &VmBatch{}
	}
	out := make([]Vm, 0, n)
	for i := uint64(0); i < n; i++ {
		v := decodeVm(r)
		if r.Err() != nil {
			break
		}
		out = append(out, *v)
	}
	return &VmBatch{Vms: out}
}

// DemandEntry is one item's advertised state: the sender's demand
// estimate (EWMA of consumption plus deficit aborts, in milli-units so
// fractional decay survives the wire) and its current local quota.
type DemandEntry struct {
	Item ident.ItemID
	// Demand is the sender's demand-rate estimate ×1000.
	Demand uint64
	// Have is the sender's current local quota of Item.
	Have core.Value
}

// DemandAdvert gossips the sender's per-item demand and holdings to a
// peer. Receivers fold it into their peer-demand view; advert
// freshness doubles as the reachability signal (a partitioned peer's
// adverts stop arriving, so its entries age out of rebalancing
// decisions).
type DemandAdvert struct {
	Entries []DemandEntry
}

// maxDemandEntries bounds decoded advert length (same rationale as
// maxVmBatch: frames are already bounded, this stops hostile length
// prefixes from over-allocating).
const maxDemandEntries = 1 << 12

// Kind implements Msg.
func (*DemandAdvert) Kind() Kind { return KDemandAdvert }

// Encode implements Msg.
func (m *DemandAdvert) Encode(w *Writer) {
	w.U64(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.String(string(e.Item))
		w.U64(e.Demand)
		w.I64(int64(e.Have))
	}
}

func decodeDemandAdvert(r *Reader) *DemandAdvert {
	n := r.Count(maxDemandEntries)
	if r.Err() != nil {
		return &DemandAdvert{}
	}
	out := make([]DemandEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		e := DemandEntry{
			Item:   ident.ItemID(r.String()),
			Demand: r.U64(),
			Have:   core.Value(r.I64()),
		}
		if r.Err() != nil {
			break
		}
		out = append(out, e)
	}
	return &DemandAdvert{Entries: out}
}

// NoShare is a site's answer to a full-read Request (Txn, Item) when it
// holds none of Item and no Vm of its own still carries Item away: the
// read has gathered everything the site had, which was nothing, so no
// value moves and nothing is logged. FlowVec is the sender's flow
// vector for Item, merged by the reader as a Vm's would be.
type NoShare struct {
	Txn     tstamp.TS
	Item    ident.ItemID
	FlowVec []FlowEntry
}

// Kind implements Msg.
func (*NoShare) Kind() Kind { return KNoShare }

// Encode implements Msg.
func (m *NoShare) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	EncodeFlowVec(w, m.FlowVec)
}

func decodeNoShare(r *Reader) *NoShare {
	return &NoShare{Txn: r.TS(), Item: ident.ItemID(r.String()), FlowVec: DecodeFlowVec(r)}
}

// VmAck acknowledges all Vm with Seq ≤ UpTo on the sender→receiver
// channel (cumulative, like a window protocol).
type VmAck struct {
	UpTo uint64
}

// Kind implements Msg.
func (*VmAck) Kind() Kind { return KVmAck }

// Encode implements Msg.
func (m *VmAck) Encode(w *Writer) { w.U64(m.UpTo) }

func decodeVmAck(r *Reader) *VmAck { return &VmAck{UpTo: r.U64()} }

// --- Baseline (traditional distributed DB) messages ------------------------

// LockMode distinguishes shared and exclusive baseline locks.
type LockMode uint8

// Lock modes.
const (
	LockShared LockMode = iota + 1
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

// LockReq asks a replica holder to lock its copy of Item for Txn.
type LockReq struct {
	Txn  tstamp.TS
	Item ident.ItemID
	Mode LockMode
}

// Kind implements Msg.
func (*LockReq) Kind() Kind { return KLockReq }

// Encode implements Msg.
func (m *LockReq) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.U8(uint8(m.Mode))
}

func decodeLockReq(r *Reader) *LockReq {
	return &LockReq{
		Txn:  r.TS(),
		Item: ident.ItemID(r.String()),
		Mode: LockMode(r.U8()),
	}
}

// LockReply reports whether the lock was granted.
type LockReply struct {
	Txn     tstamp.TS
	Item    ident.ItemID
	Granted bool
}

// Kind implements Msg.
func (*LockReply) Kind() Kind { return KLockReply }

// Encode implements Msg.
func (m *LockReply) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.Bool(m.Granted)
}

func decodeLockReply(r *Reader) *LockReply {
	return &LockReply{
		Txn:     r.TS(),
		Item:    ident.ItemID(r.String()),
		Granted: r.Bool(),
	}
}

// ItemDelta is one write in a baseline transaction: apply Delta to
// the replica of Item (bounded below by zero, like the DvP ops).
type ItemDelta struct {
	Item  ident.ItemID
	Delta core.Value
}

func encodeDeltas(w *Writer, ds []ItemDelta) {
	w.U64(uint64(len(ds)))
	for _, d := range ds {
		w.String(string(d.Item))
		w.I64(int64(d.Delta))
	}
}

func decodeDeltas(r *Reader) []ItemDelta {
	n := r.Count(maxStringLen)
	if r.Err() != nil {
		return nil
	}
	ds := make([]ItemDelta, 0, n)
	for i := uint64(0); i < n; i++ {
		ds = append(ds, ItemDelta{
			Item:  ident.ItemID(r.String()),
			Delta: core.Value(r.I64()),
		})
	}
	return ds
}

// Prepare is the 2PC phase-1 message. The participant force-writes a
// prepare record (entering the in-doubt window) and votes.
type Prepare struct {
	Txn    tstamp.TS
	Writes []ItemDelta
}

// Kind implements Msg.
func (*Prepare) Kind() Kind { return KPrepare }

// Encode implements Msg.
func (m *Prepare) Encode(w *Writer) {
	w.TS(m.Txn)
	encodeDeltas(w, m.Writes)
}

func decodePrepare(r *Reader) *Prepare {
	return &Prepare{Txn: r.TS(), Writes: decodeDeltas(r)}
}

// Vote is the 2PC phase-1 reply.
type Vote struct {
	Txn tstamp.TS
	Yes bool
}

// Kind implements Msg.
func (*Vote) Kind() Kind { return KVote }

// Encode implements Msg.
func (m *Vote) Encode(w *Writer) {
	w.TS(m.Txn)
	w.Bool(m.Yes)
}

func decodeVote(r *Reader) *Vote {
	return &Vote{Txn: r.TS(), Yes: r.Bool()}
}

// Decision is the 2PC phase-2 message.
type Decision struct {
	Txn    tstamp.TS
	Commit bool
}

// Kind implements Msg.
func (*Decision) Kind() Kind { return KDecision }

// Encode implements Msg.
func (m *Decision) Encode(w *Writer) {
	w.TS(m.Txn)
	w.Bool(m.Commit)
}

func decodeDecision(r *Reader) *Decision {
	return &Decision{Txn: r.TS(), Commit: r.Bool()}
}

// DecisionAck completes 2PC phase 2 (lets the coordinator forget).
type DecisionAck struct {
	Txn tstamp.TS
}

// Kind implements Msg.
func (*DecisionAck) Kind() Kind { return KDecisionAck }

// Encode implements Msg.
func (m *DecisionAck) Encode(w *Writer) { w.TS(m.Txn) }

func decodeDecisionAck(r *Reader) *DecisionAck {
	return &DecisionAck{Txn: r.TS()}
}

// ReadReq asks a replica holder for its copy's value and version.
type ReadReq struct {
	Txn  tstamp.TS
	Item ident.ItemID
}

// Kind implements Msg.
func (*ReadReq) Kind() Kind { return KReadReq }

// Encode implements Msg.
func (m *ReadReq) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
}

func decodeReadReq(r *Reader) *ReadReq {
	return &ReadReq{Txn: r.TS(), Item: ident.ItemID(r.String())}
}

// ReadReply returns a replica's value and version (for quorum reads,
// the highest-version reply is current).
type ReadReply struct {
	Txn     tstamp.TS
	Item    ident.ItemID
	Value   core.Value
	Version uint64
	OK      bool
}

// Kind implements Msg.
func (*ReadReply) Kind() Kind { return KReadReply }

// Encode implements Msg.
func (m *ReadReply) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.I64(int64(m.Value))
	w.U64(m.Version)
	w.Bool(m.OK)
}

func decodeReadReply(r *Reader) *ReadReply {
	return &ReadReply{
		Txn:     r.TS(),
		Item:    ident.ItemID(r.String()),
		Value:   core.Value(r.I64()),
		Version: r.U64(),
		OK:      r.Bool(),
	}
}

// QWrite installs an absolute (value, version) pair on a replica —
// quorum-consensus write. The replica applies it only if Version
// exceeds its current version, then releases the transaction's lock.
type QWrite struct {
	Txn     tstamp.TS
	Item    ident.ItemID
	Value   core.Value
	Version uint64
}

// Kind implements Msg.
func (*QWrite) Kind() Kind { return KQWrite }

// Encode implements Msg.
func (m *QWrite) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.I64(int64(m.Value))
	w.U64(m.Version)
}

func decodeQWrite(r *Reader) *QWrite {
	return &QWrite{
		Txn:     r.TS(),
		Item:    ident.ItemID(r.String()),
		Value:   core.Value(r.I64()),
		Version: r.U64(),
	}
}

// QWriteAck confirms a quorum write at one replica.
type QWriteAck struct {
	Txn  tstamp.TS
	Item ident.ItemID
	OK   bool
}

// Kind implements Msg.
func (*QWriteAck) Kind() Kind { return KQWriteAck }

// Encode implements Msg.
func (m *QWriteAck) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.Bool(m.OK)
}

func decodeQWriteAck(r *Reader) *QWriteAck {
	return &QWriteAck{
		Txn:  r.TS(),
		Item: ident.ItemID(r.String()),
		OK:   r.Bool(),
	}
}

// Forward ships one operation to an item's primary site (primary-copy
// replica control): apply Delta (bounded at zero), or read when Read
// is set.
type Forward struct {
	Txn   tstamp.TS
	Item  ident.ItemID
	Delta core.Value
	Read  bool
}

// Kind implements Msg.
func (*Forward) Kind() Kind { return KForward }

// Encode implements Msg.
func (m *Forward) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.I64(int64(m.Delta))
	w.Bool(m.Read)
}

func decodeForward(r *Reader) *Forward {
	return &Forward{
		Txn:   r.TS(),
		Item:  ident.ItemID(r.String()),
		Delta: core.Value(r.I64()),
		Read:  r.Bool(),
	}
}

// ForwardReply answers a primary-copy forward.
type ForwardReply struct {
	Txn   tstamp.TS
	Item  ident.ItemID
	OK    bool
	Value core.Value
}

// Kind implements Msg.
func (*ForwardReply) Kind() Kind { return KForwardReply }

// Encode implements Msg.
func (m *ForwardReply) Encode(w *Writer) {
	w.TS(m.Txn)
	w.String(string(m.Item))
	w.Bool(m.OK)
	w.I64(int64(m.Value))
}

func decodeForwardReply(r *Reader) *ForwardReply {
	return &ForwardReply{
		Txn:   r.TS(),
		Item:  ident.ItemID(r.String()),
		OK:    r.Bool(),
		Value: core.Value(r.I64()),
	}
}

// DecodeMsg decodes a message body of the given kind.
func DecodeMsg(kind Kind, r *Reader) (Msg, error) {
	var m Msg
	switch kind {
	case KRequest:
		m = decodeRequest(r)
	case KVm:
		m = decodeVm(r)
	case KVmAck:
		m = decodeVmAck(r)
	case KLockReq:
		m = decodeLockReq(r)
	case KLockReply:
		m = decodeLockReply(r)
	case KPrepare:
		m = decodePrepare(r)
	case KVote:
		m = decodeVote(r)
	case KDecision:
		m = decodeDecision(r)
	case KDecisionAck:
		m = decodeDecisionAck(r)
	case KReadReq:
		m = decodeReadReq(r)
	case KReadReply:
		m = decodeReadReply(r)
	case KQWrite:
		m = decodeQWrite(r)
	case KQWriteAck:
		m = decodeQWriteAck(r)
	case KForward:
		m = decodeForward(r)
	case KForwardReply:
		m = decodeForwardReply(r)
	case KVmBatch:
		m = decodeVmBatch(r)
	case KDemandAdvert:
		m = decodeDemandAdvert(r)
	case KNoShare:
		m = decodeNoShare(r)
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding %v: %w", kind, err)
	}
	return m, nil
}
