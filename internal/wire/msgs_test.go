package wire

import (
	"reflect"
	"testing"
	"testing/quick"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// roundTrip marshals an envelope around msg and decodes it back.
func roundTrip(t *testing.T, msg Msg) Msg {
	t.Helper()
	env := &Envelope{
		From:    1,
		To:      2,
		Lamport: tstamp.Make(7, 1),
		AckUpTo: 9,
		Msg:     msg,
	}
	buf, err := env.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.From != env.From || got.To != env.To || got.Lamport != env.Lamport || got.AckUpTo != env.AckUpTo {
		t.Fatalf("header mismatch: %+v vs %+v", got, env)
	}
	return got.Msg
}

func TestAllMessagesRoundTrip(t *testing.T) {
	msgs := []Msg{
		&Request{Txn: tstamp.Make(5, 2), Item: "flight/A", Want: 3, FullRead: true},
		&Request{Txn: tstamp.Make(6, 1), Item: "acct/x", Want: 0, FullRead: false},
		&Vm{Seq: 12, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(5, 2)},
		&Vm{Seq: 1, Item: "sku/9", Amount: 1, ReqTxn: 0},
		&NoShare{Txn: tstamp.Make(5, 2), Item: "flight/A", FlowVec: []FlowEntry{{Site: 3, Count: 2}}},
		&NoShare{Txn: tstamp.Make(5, 2), Item: "flight/A"},
		&VmAck{UpTo: 42},
		&LockReq{Txn: tstamp.Make(3, 3), Item: "i", Mode: LockExclusive},
		&LockReply{Txn: tstamp.Make(3, 3), Item: "i", Granted: true},
		&Prepare{Txn: tstamp.Make(4, 1), Writes: []ItemDelta{{"a", -2}}},
		&Prepare{Txn: tstamp.Make(4, 1), Writes: nil},
		&Vote{Txn: tstamp.Make(4, 1), Yes: true},
		&Decision{Txn: tstamp.Make(4, 1), Commit: false},
		&DecisionAck{Txn: tstamp.Make(4, 1)},
		&ReadReq{Txn: tstamp.Make(8, 2), Item: "q"},
		&ReadReply{Txn: tstamp.Make(8, 2), Item: "q", Value: 19, Version: 3, OK: true},
		&DemandAdvert{Entries: []DemandEntry{
			{Item: "flight/A", Demand: 12500, Have: 25},
			{Item: "acct/x", Demand: 0, Have: 0},
		}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Writes []ItemDelta{} vs nil: normalize via DeepEqual on
		// decoded form only when lengths differ from nil-ness.
		if !reflect.DeepEqual(got, m) && !equivalentEmptySlices(got, m) {
			t.Errorf("%v round trip: got %+v, want %+v", m.Kind(), got, m)
		}
	}
}

// equivalentEmptySlices tolerates nil-vs-empty slice differences that
// DeepEqual treats as distinct.
func equivalentEmptySlices(a, b Msg) bool {
	pa, ok1 := a.(*Prepare)
	pb, ok2 := b.(*Prepare)
	if ok1 && ok2 {
		return pa.Txn == pb.Txn && len(pa.Writes) == 0 && len(pb.Writes) == 0
	}
	da, ok1 := a.(*DemandAdvert)
	db, ok2 := b.(*DemandAdvert)
	if ok1 && ok2 {
		return len(da.Entries) == 0 && len(db.Entries) == 0
	}
	return false
}

func TestDemandAdvertRoundTripProperty(t *testing.T) {
	f := func(item string, demand uint64, have int64, item2 string) bool {
		m := &DemandAdvert{Entries: []DemandEntry{
			{Item: ident.ItemID(item), Demand: demand, Have: core.Value(have)},
			{Item: ident.ItemID(item2), Demand: demand / 2, Have: 0},
		}}
		env := &Envelope{From: 2, To: 3, Msg: m}
		buf, err := env.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Msg, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDemandAdvertHostileLength(t *testing.T) {
	var w Writer
	w.U8(envelopeMagic)
	w.Site(1)
	w.Site(2)
	w.U64(0)
	w.U64(0)
	w.U8(uint8(KDemandAdvert))
	w.U64(1 << 40) // hostile entry count
	if _, err := Unmarshal(w.Bytes()); err == nil {
		t.Error("hostile demand-advert length must be rejected")
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(txn uint64, item string, want int64, full bool) bool {
		m := &Request{Txn: tstamp.TS(txn), Item: ident.ItemID(item), Want: core.Value(want), FullRead: full}
		env := &Envelope{From: 1, To: 2, Msg: m}
		buf, err := env.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Msg, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVmRoundTripProperty(t *testing.T) {
	f := func(seq uint64, item string, amt int64, req uint64) bool {
		m := &Vm{Seq: seq, Item: ident.ItemID(item), Amount: core.Value(amt), ReqTxn: tstamp.TS(req)}
		env := &Envelope{From: 3, To: 1, Msg: m}
		buf, err := env.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Msg, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A foreign frame, or one of an older encoding (0xD7: before the
// compact format; 0xD8: before NoShare), is refused.
func TestUnmarshalBadMagic(t *testing.T) {
	for _, magic := range []byte{0x00, 0xD7, 0xD8} {
		env := &Envelope{From: 1, To: 2, Msg: &VmAck{UpTo: 1}}
		buf, _ := env.Marshal()
		buf[0] = magic
		if _, err := Unmarshal(buf); err == nil {
			t.Errorf("magic %#x must be rejected", magic)
		}
	}
}

func TestUnmarshalUnknownKind(t *testing.T) {
	env := &Envelope{From: 1, To: 2, Msg: &VmAck{UpTo: 1}}
	buf, _ := env.Marshal()
	// Kind byte sits right after magic(1)+from(2)+to(2)+lamport(varint:1 for 0)+ack(varint:1 for 1... careful)
	// Safer: craft a minimal envelope by hand.
	var w Writer
	w.U8(envelopeMagic)
	w.Site(1)
	w.Site(2)
	w.U64(0)
	w.U64(0)
	w.U8(200) // unknown kind
	if _, err := Unmarshal(w.Bytes()); err == nil {
		t.Error("unknown kind must be rejected")
	}
	_ = buf
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	for _, m := range []Msg{&VmAck{UpTo: 1}, &NoShare{Txn: tstamp.Make(2, 1), Item: "x"}} {
		env := &Envelope{From: 1, To: 2, Msg: m}
		buf, _ := env.Marshal()
		buf = append(buf, 0xFF)
		if _, err := Unmarshal(buf); err == nil {
			t.Errorf("%v: trailing bytes must be rejected", m.Kind())
		}
	}
}

// A NoShare whose flow vector counts more entries than any vector holds
// is refused, not allocated.
func TestNoShareFlowVecOverBound(t *testing.T) {
	var w Writer
	w.U8(envelopeMagic)
	w.Site(1)
	w.Site(2)
	w.TS(tstamp.Make(3, 1))
	w.U64(0)
	w.U8(uint8(KNoShare))
	w.TS(tstamp.Make(3, 1))
	w.String("x")
	w.U64(1<<16 + 1)
	if _, err := Unmarshal(w.Bytes()); err == nil {
		t.Error("a flow vector over its bound must be rejected")
	}
}

func TestUnmarshalTruncations(t *testing.T) {
	ctx := TraceCtx{Origin: 2, TS: tstamp.Make(9, 2), Span: 2<<40 | 1}
	for _, m := range []Msg{
		&Request{Txn: tstamp.Make(9, 2), Item: "flight/A", Want: 4, FullRead: true},
		&Vm{Seq: 3, Item: "flight/A", Amount: 4, Trace: ctx},
		&VmBatch{Vms: []Vm{{Seq: 3, Item: "a", Amount: 4, Trace: ctx}, {Seq: 4, Item: "b", Amount: 1}}},
		&NoShare{Txn: tstamp.Make(9, 2), Item: "flight/A", FlowVec: []FlowEntry{{Site: 1, Count: 7}}},
	} {
		env := &Envelope{From: 1, To: 2, Lamport: tstamp.Make(3, 1), AckUpTo: 5, Msg: m}
		buf, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// Every strict prefix must fail cleanly, never panic: the trace
		// context is a field like any other, not an optional tail.
		for n := 0; n < len(buf); n++ {
			if _, err := Unmarshal(buf[:n]); err == nil {
				t.Errorf("%v truncated to %d bytes decoded successfully", m.Kind(), n)
			}
		}
	}
}

func TestMarshalNilMsg(t *testing.T) {
	env := &Envelope{From: 1, To: 2}
	if _, err := env.Marshal(); err == nil {
		t.Error("envelope without message must fail to marshal")
	}
}

func TestUnmarshalGarbageNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		_, _ = Unmarshal(garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KRequest, KVm, KVmAck, KLockReq, KLockReply,
		KPrepare, KVote, KDecision, KDecisionAck, KReadReq, KReadReply,
		KQWrite, KQWriteAck, KForward, KForwardReply, KVmBatch, KDemandAdvert, KNoShare}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
	// Kind 6 is a reserved gap: no message decodes from it, and the
	// kinds after it keep their numbers.
	if _, err := DecodeMsg(Kind(6), NewReader(nil)); err == nil {
		t.Error("reserved kind 6 decoded")
	}
	if KLockReply != 5 || KPrepare != 7 || KNoShare != 21 {
		t.Errorf("kinds renumbered: KLockReply %d, KPrepare %d, KNoShare %d", KLockReply, KPrepare, KNoShare)
	}
}

func TestEnvelopeString(t *testing.T) {
	env := &Envelope{From: 1, To: 2, Msg: &VmAck{}}
	if got := env.String(); got != "s1→s2 vmack" {
		t.Errorf("String = %q", got)
	}
}

func TestLockModeString(t *testing.T) {
	if LockShared.String() != "S" || LockExclusive.String() != "X" {
		t.Error("lock mode strings wrong")
	}
}

// TestEnvelopeBytes pins DESIGN §2.7's On the wire table at a counter
// of 20 000, site ids below 128 and a seq of 300: an envelope is 8 B +
// its ack + its body, and each body's fields take what the table says.
func TestEnvelopeBytes(t *testing.T) {
	ts := tstamp.Make(20000, 1) // 4 B
	traced := TraceCtx{Origin: 1, TS: ts, Span: 1<<40 | 5}
	vm := Vm{Seq: 300, Item: "it/17", Amount: 1, ReqTxn: ts}
	tracedVm := vm
	tracedVm.Trace = traced
	for _, c := range []struct {
		msg  Msg
		body int
	}{
		{&Request{Txn: ts, Item: "it/17", Want: 1}, 7 + 5 + 4},
		{&Request{Txn: ts, Item: "it/17", Want: 1, Trace: traced}, 7 + 5 + 11},
		{&vm, 7 + 2 + 5 + 4},
		{&tracedVm, 7 + 2 + 5 + 11},
		{&Vm{Seq: 300, Item: "it/17", Amount: 1, ReqTxn: ts, FlowVec: []FlowEntry{{Site: 2, Count: 300}}}, 7 + 2 + 5 + 4 + 1 + 2},
		{&VmAck{UpTo: 300}, 2},
		{&VmBatch{Vms: []Vm{vm, vm}}, 1 + 2*(7+2+5+4)},
		{&NoShare{Txn: ts, Item: "it/17"}, 6 + 5},
		{&NoShare{Txn: ts, Item: "it/17", FlowVec: []FlowEntry{{Site: 2, Count: 300}}}, 6 + 5 + 1 + 2},
	} {
		buf, err := (&Envelope{From: 1, To: 2, Lamport: ts, AckUpTo: 300, Msg: c.msg}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if want := 8 + 2 + c.body; len(buf) != want {
			t.Errorf("%v: %d B on the wire, want %d", c.msg.Kind(), len(buf), want)
		}
	}
}
