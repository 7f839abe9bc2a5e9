package wire

import (
	"testing"

	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// FuzzUnmarshal drives the envelope decoder with arbitrary bytes: it
// must never panic, and anything it accepts must re-encode to a form
// it accepts again (decode/encode/decode fixed point).
func FuzzUnmarshal(f *testing.F) {
	seedMsgs := []Msg{
		&Request{Txn: tstamp.Make(5, 2), Item: "flight/A", Want: 3, FullRead: true},
		&Vm{Seq: 12, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(5, 2),
			FlowVec: []FlowEntry{{Site: 1, Count: 3}}},
		&VmAck{UpTo: 42},
		&Prepare{Txn: tstamp.Make(4, 1), Writes: []ItemDelta{{"a", -2}}},
		&Decision{Txn: tstamp.Make(4, 1), Commit: true},
		&DemandAdvert{Entries: []DemandEntry{{Item: "x", Demand: 9000, Have: 9}}},
		&Request{Txn: tstamp.Make(6, 1), Item: "flight/A", Want: 2,
			Trace: TraceCtx{Origin: 1, TS: tstamp.Make(6, 1), Span: 1<<40 | 9}},
		&Vm{Seq: 3, Item: "flight/A", Amount: 4, ReqTxn: tstamp.Make(6, 1),
			Trace: TraceCtx{Origin: 2, TS: tstamp.Make(6, 1), Span: 2<<40 | 5}},
		&VmBatch{Vms: []Vm{
			{Seq: 4, Item: "a", Amount: 1, Trace: TraceCtx{Origin: 3, TS: tstamp.Make(7, 2), Span: 3<<40 | 1}},
			{Seq: 5, Item: "b", Amount: 2},
		}},
		&NoShare{Txn: tstamp.Make(5, 2), Item: "flight/A", FlowVec: []FlowEntry{{Site: 3, Count: 1}}},
	}
	for _, m := range seedMsgs {
		env := &Envelope{From: 1, To: 2, Lamport: tstamp.Make(9, 1), AckUpTo: 3, Msg: m}
		buf, err := env.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xD7})
	f.Add([]byte{0xD8})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Unmarshal(data)
		if err != nil {
			return
		}
		buf, err := env.Marshal()
		if err != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", err)
		}
		if _, err := Unmarshal(buf); err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
	})
}

// FuzzTSAndSite: every timestamp — any counter below 2⁴⁸ at any site —
// and every site id reads back exactly what was written; a site id
// above 65535 and a counter of 2⁴⁸ or more are refused; bytes left
// after the values make Done fail.
func FuzzTSAndSite(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint64(0), []byte{})
	f.Add(uint64(70000), uint16(1), uint64(65535), []byte{0})
	f.Add(uint64(1<<48-1), uint16(65535), uint64(65536), []byte{0x80, 1})
	f.Add(uint64(1<<48), uint16(3), uint64(1<<63), []byte{})
	f.Fuzz(func(t *testing.T, counter uint64, site uint16, raw uint64, tail []byte) {
		ts := tstamp.Make(counter&maxCounter, ident.SiteID(site))
		var w Writer
		w.TS(ts)
		w.Site(ident.SiteID(site))
		r := NewReader(w.Bytes())
		if got := r.TS(); got != ts {
			t.Fatalf("TS %v read back as %v", ts, got)
		}
		if got := r.Site(); got != ident.SiteID(site) {
			t.Fatalf("site %d read back as %d", site, got)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("TS %v, site %d: %v", ts, site, err)
		}
		if len(tail) > 0 {
			r := NewReader(append(w.Bytes(), tail...))
			r.TS()
			r.Site()
			if r.Done() == nil {
				t.Fatalf("%d trailing bytes accepted", len(tail))
			}
		}

		var raws Writer
		raws.U64(raw)
		r = NewReader(raws.Bytes())
		got := r.Site()
		if raw > maxSite {
			if r.Err() == nil {
				t.Fatalf("site id %d accepted", raw)
			}
		} else if r.Done() != nil || got != ident.SiteID(raw) {
			t.Fatalf("site id %d read as %d (%v)", raw, got, r.Err())
		}
		raws.U64(uint64(site))
		r = NewReader(raws.Bytes())
		gotTS := r.TS()
		if raw > maxCounter {
			if r.Err() == nil {
				t.Fatalf("counter %d accepted", raw)
			}
		} else if r.Done() != nil || gotTS != tstamp.Make(raw, ident.SiteID(site)) {
			t.Fatalf("counter %d at site %d read as %v (%v)", raw, site, gotTS, r.Err())
		}
	})
}
