package wal

import (
	"errors"
	"fmt"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wire"
)

// Action is one database change within a log record: apply Delta to
// the local quota of Item. SetTS is the stamp the change carries: the
// live site raises the item's Conc1 stamp to it as it applies the
// record, and recovery ignores it (a restart floors every stamp at the
// clock reservation instead).
//
// Ord is the ordinal Item has in the log the record is written to, or
// 0: a log names an item once (RecName) and every later record refers
// to it by ordinal, while an action with Ord 0 spells its item out. A
// site's writer sets it as it enqueues the record; decoding sets it to
// what the record carried.
//
// Redo idempotence (§7: "the redoing actions must be idempotent") comes
// from the replay's starting point, not from the action: a restart
// replays the log into the last checkpoint's image, or into an empty
// store, so every action is applied exactly once whatever crashed
// before.
type Action struct {
	Item  ident.ItemID
	Delta core.Value
	SetTS tstamp.TS
	Ord   uint64
}

func encodeActions(w *wire.Writer, as []Action) {
	w.U64(uint64(len(as)))
	for _, a := range as {
		writeItem(w, a.Ord, a.Item)
		w.I64(int64(a.Delta))
		w.TS(a.SetTS)
	}
}

// maxCount bounds the count of actions, Vm and channels in one record.
// A count above it is a decode error, never an empty section.
const maxCount = 1 << 16

func decodeActions(r *wire.Reader, names *Names) []Action {
	n := r.Count(maxCount)
	if n == 0 {
		return nil
	}
	as := make([]Action, 0, n)
	for i := uint64(0); i < n; i++ {
		var a Action
		a.Ord, a.Item = readItem(r, names)
		a.Delta, a.SetTS = core.Value(r.I64()), r.TS()
		as = append(as, a)
	}
	return as
}

// VmOut describes one virtual message in a record's message-sequence:
// Amount of Item bound for site To as Vm number Seq on the local→To
// channel, prompted by ReqTxn (zero for proactive transfers).
type VmOut struct {
	To     ident.SiteID
	Seq    uint64
	Item   ident.ItemID
	Amount core.Value
	ReqTxn tstamp.TS
	// FlowVec is the sender's value-flow vector at grant time
	// (serializability instrumentation; see internal/site).
	FlowVec []wire.FlowEntry
	// Trace is the causal-tracing context stamped on real messages
	// carrying this Vm. Deliberately NOT persisted: traces are
	// best-effort observability, not worth log bytes. A crash
	// therefore drops the context — retransmitted Vm of a recovered
	// site arrive untraced, which the stitcher tolerates.
	Trace wire.TraceCtx
}

// The two low bits of a Vm list's head: set when every Vm leaves out
// its item, or its ReqTxn, because the record's one action implies it.
const (
	impliedItem = 1 << iota
	impliedReqTxn
)

// encodeVmOuts appends vs: their count shifted left two bits, then each
// Vm. implied is the carrying create record's one action, nil where
// nothing implies a field (a checkpoint's pending list, a create with
// several actions). The impliedItem bit is set when every Vm is for
// that action's item, the impliedReqTxn bit when every Vm's ReqTxn is
// that action's SetTS — always so under Conc1, which stamps the item at
// the requester's timestamp — and then no Vm spells that field out. A
// Vm that does writes its item as a reference to the ordinal ords gives
// it, inline where ords gives none.
func encodeVmOuts(w *wire.Writer, vs []VmOut, implied *Action, ords map[ident.ItemID]uint64) {
	head := uint64(0)
	if implied != nil && len(vs) > 0 {
		head = impliedItem | impliedReqTxn
		for _, v := range vs {
			if v.Item != implied.Item {
				head &^= impliedItem
			}
			if v.ReqTxn != implied.SetTS {
				head &^= impliedReqTxn
			}
		}
	}
	w.U64(uint64(len(vs))<<2 | head)
	for _, v := range vs {
		w.Site(v.To)
		w.U64(v.Seq)
		if head&impliedItem == 0 {
			writeItem(w, ords[v.Item], v.Item)
		}
		w.I64(int64(v.Amount))
		if head&impliedReqTxn == 0 {
			w.TS(v.ReqTxn)
		}
		wire.EncodeFlowVec(w, v.FlowVec)
	}
}

func decodeVmOuts(r *wire.Reader, implied *Action, names *Names) []VmOut {
	head := r.Count(maxCount<<2 | 3)
	if head&3 != 0 && implied == nil {
		r.Fail(errors.New("vm fields left out with no action to imply them"))
	}
	n := head >> 2
	if n == 0 || r.Err() != nil {
		return nil
	}
	vs := make([]VmOut, 0, n)
	for i := uint64(0); i < n; i++ {
		v := VmOut{To: r.Site(), Seq: r.U64()}
		if head&impliedItem != 0 {
			v.Item = implied.Item
		} else {
			_, v.Item = readItem(r, names)
		}
		v.Amount = core.Value(r.I64())
		if head&impliedReqTxn != 0 {
			v.ReqTxn = implied.SetTS
		} else {
			v.ReqTxn = r.TS()
		}
		v.FlowVec = wire.DecodeFlowVec(r)
		vs = append(vs, v)
	}
	return vs
}

// impliedBy is the action whose item and stamp a create record's Vm may
// leave out: its one action, if it has exactly one.
func impliedBy(as []Action) *Action {
	if len(as) != 1 {
		return nil
	}
	return &as[0]
}

// VmCreateRec is the paper's `[database-actions, message-sequence]`
// record (§4.2): the atomic unit that deducts local quota and brings
// the corresponding virtual messages into existence. A create with one
// action names its item and stamp once: Vm for that same item, or
// prompted by the transaction that stamp names, leave them out.
type VmCreateRec struct {
	Actions []Action
	Msgs    []VmOut
}

// Encode serializes the record payload.
func (rec *VmCreateRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode),
// so hot-path callers can reuse a pooled Writer.
func (rec *VmCreateRec) EncodeTo(w *wire.Writer) {
	encodeActions(w, rec.Actions)
	encodeVmOuts(w, rec.Msgs, impliedBy(rec.Actions), nil)
}

// DecodeVmCreate parses a RecVmCreate payload that spells out every
// item it names; a reference to an ordinal is a decode error.
func DecodeVmCreate(data []byte) (*VmCreateRec, error) { return (*Names)(nil).DecodeVmCreate(data) }

// DecodeVmCreate parses a RecVmCreate payload of n's log.
func (n *Names) DecodeVmCreate(data []byte) (*VmCreateRec, error) {
	r := wire.NewReader(data)
	rec := &VmCreateRec{Actions: decodeActions(r, n)}
	rec.Msgs = decodeVmOuts(r, impliedBy(rec.Actions), n)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: vm-create: %w", err)
	}
	return rec, nil
}

// VmAcceptRec completes a Vm's lifespan at the receiver (§4.2): the
// `[database-actions]` record crediting the carried value, tagged with
// the channel position so recovery can rebuild the dedup cursor. A Vm
// consumed by the transaction it answers is accepted by that
// transaction's CommitRec instead; this record is for a Vm accepted
// into a free item, or held by a transaction that then timed out.
type VmAcceptRec struct {
	From    ident.SiteID
	Seq     uint64
	Actions []Action
}

// Encode serializes the record payload.
func (rec *VmAcceptRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode).
func (rec *VmAcceptRec) EncodeTo(w *wire.Writer) {
	w.Site(rec.From)
	w.U64(rec.Seq)
	encodeActions(w, rec.Actions)
}

// DecodeVmAccept parses a RecVmAccept payload that spells out every
// item it names; a reference to an ordinal is a decode error.
func DecodeVmAccept(data []byte) (*VmAcceptRec, error) { return (*Names)(nil).DecodeVmAccept(data) }

// DecodeVmAccept parses a RecVmAccept payload of n's log.
func (n *Names) DecodeVmAccept(data []byte) (*VmAcceptRec, error) {
	r := wire.NewReader(data)
	rec := &VmAcceptRec{
		From:    r.Site(),
		Seq:     r.U64(),
		Actions: decodeActions(r, n),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: vm-accept: %w", err)
	}
	return rec, nil
}

// VmRef names one inbound Vm by its place on its channel: the sending
// site and the Vm's sequence number on the sender→here channel.
type VmRef struct {
	From ident.SiteID
	Seq  uint64
}

// CommitRec is the §5 step-5 record whose stability commits
// transaction Txn: `[database-actions, accepted Vm]`. Actions are the
// transaction's net changes — its own deltas plus the credits of the Vm
// it consumed — and every one is stamped with Txn, so the encoding
// states the stamp once: actions decode with SetTS = Txn, and whatever
// SetTS they carried is not encoded (Txn 0, the initial placement's,
// means no stamp). Accepted lists the Vm whose credits the actions
// include: the record is their acceptance record too, and they are
// accepted exactly when it is stable (§4.2).
//
// Layout: Txn, then the action count shifted left one bit with the low
// bit set iff an accepted list follows, then that list — its count and
// each (from, seq) — then each action as (item reference, delta). A
// commit that accepted nothing pays no byte for the list, and one that
// refers to its item by ordinal pays one byte for it.
type CommitRec struct {
	Txn      tstamp.TS
	Actions  []Action
	Accepted []VmRef
}

// Encode serializes the record payload.
func (rec *CommitRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode).
func (rec *CommitRec) EncodeTo(w *wire.Writer) {
	w.TS(rec.Txn)
	head := uint64(len(rec.Actions)) << 1
	if len(rec.Accepted) > 0 {
		head |= 1
	}
	w.U64(head)
	if len(rec.Accepted) > 0 {
		w.U64(uint64(len(rec.Accepted)))
		for _, v := range rec.Accepted {
			w.Site(v.From)
			w.U64(v.Seq)
		}
	}
	for _, a := range rec.Actions {
		writeItem(w, a.Ord, a.Item)
		w.I64(int64(a.Delta))
	}
}

// decodeCommitHead reads a commit up to its actions: the Txn, the
// action count and the accepted list.
func decodeCommitHead(r *wire.Reader) (txn tstamp.TS, actions uint64, accepted []VmRef) {
	txn = r.TS()
	head := r.Count(maxCount<<1 | 1)
	if head&1 == 1 {
		n := r.Count(maxCount)
		accepted = make([]VmRef, 0, n)
		for i := uint64(0); i < n; i++ {
			accepted = append(accepted, VmRef{From: r.Site(), Seq: r.U64()})
		}
	}
	return txn, head >> 1, accepted
}

// DecodeCommit parses a RecCommit payload that spells out every item
// it names; a reference to an ordinal is a decode error.
func DecodeCommit(data []byte) (*CommitRec, error) { return (*Names)(nil).DecodeCommit(data) }

// DecodeCommit parses a RecCommit payload of n's log.
func (n *Names) DecodeCommit(data []byte) (*CommitRec, error) {
	r := wire.NewReader(data)
	rec := &CommitRec{}
	var c uint64
	rec.Txn, c, rec.Accepted = decodeCommitHead(r)
	if c > 0 {
		rec.Actions = make([]Action, 0, c)
		for i := uint64(0); i < c; i++ {
			a := Action{SetTS: rec.Txn}
			a.Ord, a.Item = readItem(r, n)
			a.Delta = core.Value(r.I64())
			rec.Actions = append(rec.Actions, a)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: commit: %w", err)
	}
	return rec, nil
}

// Accepted returns the Vm whose acceptance r logs: the one a RecVmAccept
// names, the list a RecCommit carries, none for any other kind. Redo and
// every audit of what a log has accepted read acceptances through it.
// It reads no further than they go — both records state them first —
// and leaves checking the rest to the record's decoder.
func Accepted(r Record) ([]VmRef, error) {
	rd := wire.NewReader(r.Data)
	var refs []VmRef
	switch r.Kind {
	case RecVmAccept:
		refs = []VmRef{{From: rd.Site(), Seq: rd.U64()}}
	case RecCommit:
		_, _, refs = decodeCommitHead(rd)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("wal: %v: %w", r.Kind, err)
	}
	return refs, nil
}

// AppliedRec is the §5 step-6 record: the changes logged at CommitLSN
// have been carried out against the database. Sites no longer write
// it (see RecApplied), and no log this build opens holds one: the codec
// stays only because the benchmark harness still names it.
type AppliedRec struct {
	CommitLSN uint64
}

// Encode serializes the record payload.
func (rec *AppliedRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode).
func (rec *AppliedRec) EncodeTo(w *wire.Writer) {
	w.U64(rec.CommitLSN)
}

// DecodeApplied parses a RecApplied payload.
func DecodeApplied(data []byte) (*AppliedRec, error) {
	r := wire.NewReader(data)
	rec := &AppliedRec{CommitLSN: r.U64()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: applied: %w", err)
	}
	return rec, nil
}

// CheckpointItem is one item's durable state inside a checkpoint: its
// local quota. The item's Conc1 stamp is not durable state: a restart
// floors every stamp at the clock reservation instead. Ord is the
// item's ordinal in the log, or 0 if the log has given it none: the
// checkpoint defines it again, so that a log compacted up to the
// checkpoint still defines every ordinal the rest of it refers to.
type CheckpointItem struct {
	Item  ident.ItemID
	Value core.Value
	Ord   uint64
}

// VmChannelState is the complete per-peer Vm channel state inside a
// checkpoint: outbound cursor and retransmission set, and the inbound
// acceptance set (cumulative low-water mark plus the sparse accepted
// tail above it). Recovery restores these and then replays only the
// log suffix after the checkpoint.
type VmChannelState struct {
	Peer    ident.SiteID
	OutSeq  uint64
	CumAck  uint64
	Pending []VmOut
	InLow   uint64
	InAbove []uint64
}

// CheckpointRec snapshots store and Vm state so recovery can bound its
// log scan (§7: "by using checkpointing mechanisms, the number of redo
// actions required can be reduced in the usual manner"). Each item is
// written as (ordinal, name); a pending Vm refers to its item by the
// ordinal the checkpoint's own items give it, so a checkpoint decodes
// alone.
type CheckpointRec struct {
	Items    []CheckpointItem
	Channels []VmChannelState
	// Clock is the clock reservation at the cut: the highest bound a
	// reservation had been begun for, which covers every stamp the
	// image holds.
	Clock uint64
}

// Encode serializes the record payload.
func (rec *CheckpointRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode).
func (rec *CheckpointRec) EncodeTo(w *wire.Writer) {
	w.U64(uint64(len(rec.Items)))
	var ords map[ident.ItemID]uint64
	for _, it := range rec.Items {
		w.U64(it.Ord)
		w.String(string(it.Item))
		w.I64(int64(it.Value))
		if it.Ord != 0 {
			if ords == nil {
				ords = make(map[ident.ItemID]uint64)
			}
			ords[it.Item] = it.Ord
		}
	}
	w.U64(uint64(len(rec.Channels)))
	for _, ch := range rec.Channels {
		w.Site(ch.Peer)
		w.U64(ch.OutSeq)
		w.U64(ch.CumAck)
		encodeVmOuts(w, ch.Pending, nil, ords)
		w.U64(ch.InLow)
		w.U64(uint64(len(ch.InAbove)))
		for _, s := range ch.InAbove {
			w.U64(s)
		}
	}
	w.U64(rec.Clock)
}

// DecodeCheckpoint parses a RecCheckpoint payload on its own.
func DecodeCheckpoint(data []byte) (*CheckpointRec, error) { return new(Names).DecodeCheckpoint(data) }

// DecodeCheckpoint parses a RecCheckpoint payload of n's log and
// defines in n the ordinal of each item it carries.
func (n *Names) DecodeCheckpoint(data []byte) (*CheckpointRec, error) {
	r := wire.NewReader(data)
	rec := &CheckpointRec{}
	c := r.Count(1 << 20)
	rec.Items = make([]CheckpointItem, 0, c)
	for i := uint64(0); i < c; i++ {
		it := CheckpointItem{Ord: r.U64(), Item: ident.ItemID(r.String()), Value: core.Value(r.I64())}
		checkName(r, it.Item)
		if it.Ord != 0 && r.Err() == nil {
			n.define(r, it.Ord, it.Item)
		}
		rec.Items = append(rec.Items, it)
	}
	m := r.Count(maxCount)
	rec.Channels = make([]VmChannelState, 0, m)
	for i := uint64(0); i < m; i++ {
		ch := VmChannelState{
			Peer:    r.Site(),
			OutSeq:  r.U64(),
			CumAck:  r.U64(),
			Pending: decodeVmOuts(r, nil, n),
			InLow:   r.U64(),
		}
		k := r.Count(1 << 20)
		for j := uint64(0); j < k; j++ {
			ch.InAbove = append(ch.InAbove, r.U64())
		}
		rec.Channels = append(rec.Channels, ch)
	}
	rec.Clock = r.Count(tstamp.MaxCounter)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	return rec, nil
}

// ClockRec is a clock reservation (RecClock): every Lamport counter up
// to Bound is covered, so a restart resumes the clock at Bound and
// floors every item's stamp there (DESIGN §2, decision 5).
type ClockRec struct {
	Bound uint64
}

// Encode serializes the record payload.
func (rec *ClockRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode).
func (rec *ClockRec) EncodeTo(w *wire.Writer) { w.U64(rec.Bound) }

// DecodeClock parses a RecClock payload. A bound no timestamp can hold
// is a decode error.
func DecodeClock(data []byte) (*ClockRec, error) {
	r := wire.NewReader(data)
	rec := &ClockRec{Bound: r.Count(tstamp.MaxCounter)}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: clock: %w", err)
	}
	return rec, nil
}

// PrepareRec is the baseline participant's force-written 2PC record.
type PrepareRec struct {
	Txn    tstamp.TS
	Coord  ident.SiteID
	Writes []Action
}

// Encode serializes the record payload.
func (rec *PrepareRec) Encode() []byte {
	var w wire.Writer
	w.TS(rec.Txn)
	w.Site(rec.Coord)
	encodeActions(&w, rec.Writes)
	return w.Bytes()
}

// DecodePrepare parses a RecPrepare payload.
func DecodePrepare(data []byte) (*PrepareRec, error) {
	r := wire.NewReader(data)
	rec := &PrepareRec{
		Txn:    r.TS(),
		Coord:  r.Site(),
		Writes: decodeActions(r, nil),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: prepare: %w", err)
	}
	return rec, nil
}

// DecisionRec is the baseline 2PC decision record.
type DecisionRec struct {
	Txn    tstamp.TS
	Commit bool
}

// Encode serializes the record payload.
func (rec *DecisionRec) Encode() []byte {
	var w wire.Writer
	w.TS(rec.Txn)
	w.Bool(rec.Commit)
	return w.Bytes()
}

// DecodeDecision parses a RecDecision payload.
func DecodeDecision(data []byte) (*DecisionRec, error) {
	r := wire.NewReader(data)
	rec := &DecisionRec{Txn: r.TS(), Commit: r.Bool()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: decision: %w", err)
	}
	return rec, nil
}
