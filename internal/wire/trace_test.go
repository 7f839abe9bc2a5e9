package wire

import (
	"reflect"
	"testing"
	"testing/quick"

	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// TestTraceCtxRoundTrip covers the trace-context field: traced and
// untraced variants of every envelope that can carry one.
func TestTraceCtxRoundTrip(t *testing.T) {
	ctx := TraceCtx{Origin: 3, TS: tstamp.Make(41, 3), Span: 3<<40 | 7}
	msgs := []Msg{
		&Request{Txn: tstamp.Make(5, 2), Item: "flight/A", Want: 3, Trace: ctx},
		&Request{Txn: tstamp.Make(5, 2), Item: "flight/A", Want: 3},
		&Vm{Seq: 12, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(5, 2), Trace: ctx},
		&Vm{Seq: 12, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(5, 2)},
		&VmBatch{Vms: []Vm{
			{Seq: 1, Item: "a", Amount: 2, Trace: ctx},
			{Seq: 2, Item: "b", Amount: 3, Trace: TraceCtx{Origin: 1, TS: tstamp.Make(9, 1), Span: 1<<40 | 2}},
		}},
		// Mixed batch: every member carries its own context, so an
		// untraced one decodes back to zero beside a traced one.
		&VmBatch{Vms: []Vm{
			{Seq: 1, Item: "a", Amount: 2, Trace: ctx},
			{Seq: 2, Item: "b", Amount: 3},
		}},
		&VmBatch{Vms: []Vm{
			{Seq: 1, Item: "a", Amount: 2},
			{Seq: 2, Item: "b", Amount: 3},
		}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v round trip: got %+v, want %+v", m.Kind(), got, m)
		}
	}
}

// TestTraceCtxRoundTripProperty: any context — valid or not — survives
// a Request, a Vm and a VmBatch member beside an untraced one.
func TestTraceCtxRoundTripProperty(t *testing.T) {
	f := func(origin uint16, ts, span uint64) bool {
		ctx := TraceCtx{Origin: ident.SiteID(origin), TS: tstamp.TS(ts), Span: span}
		for _, m := range []Msg{
			&Request{Txn: tstamp.Make(1, 1), Item: "i", Want: 1, Trace: ctx},
			&Vm{Seq: 1, Item: "i", Amount: 1, Trace: ctx},
			&VmBatch{Vms: []Vm{{Seq: 1, Item: "i", Amount: 1}, {Seq: 2, Item: "i", Amount: 1, Trace: ctx}}},
		} {
			buf, err := (&Envelope{From: 1, To: 2, Msg: m}).Marshal()
			if err != nil {
				return false
			}
			got, err := Unmarshal(buf)
			if err != nil || !reflect.DeepEqual(got.Msg, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A zero context costs 4 bytes: a 1-byte origin, the 2-byte zero TS
// and a 1-byte span.
func TestZeroTraceCtxCostsFourBytes(t *testing.T) {
	var w Writer
	encodeTraceCtx(&w, TraceCtx{})
	if w.Len() != 4 {
		t.Errorf("zero context encodes to %d bytes, want 4", w.Len())
	}
}
