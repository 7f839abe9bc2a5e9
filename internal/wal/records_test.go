package wal

import (
	"reflect"
	"testing"
	"testing/quick"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wire"
)

func TestVmCreateRoundTrip(t *testing.T) {
	rec := &VmCreateRec{
		Actions: []Action{{Item: "flight/A", Delta: -5, SetTS: tstamp.Make(3, 4)}},
		Msgs: []VmOut{
			{To: 2, Seq: 7, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(3, 2)},
			{To: 3, Seq: 1, Item: "flight/A", Amount: 2, ReqTxn: 0},
		},
	}
	got, err := DecodeVmCreate(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip: %+v vs %+v", got, rec)
	}
}

func TestVmCreateEmptySections(t *testing.T) {
	rec := &VmCreateRec{}
	got, err := DecodeVmCreate(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != 0 || len(got.Msgs) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestVmAcceptRoundTrip(t *testing.T) {
	rec := &VmAcceptRec{
		From:    4,
		Seq:     99,
		Actions: []Action{{Item: "acct/x", Delta: 5, SetTS: 0}},
	}
	got, err := DecodeVmAccept(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip: %+v vs %+v", got, rec)
	}
}

func TestCommitRoundTrip(t *testing.T) {
	rec := &CommitRec{
		Txn: tstamp.Make(12, 1),
		Actions: []Action{
			{Item: "a", Delta: -3, SetTS: tstamp.Make(12, 1)},
			{Item: "b", Delta: 3, SetTS: tstamp.Make(12, 1)},
		},
		Accepted: []VmRef{{From: 2, Seq: 40}, {From: 3, Seq: 1 << 40}},
	}
	got, err := DecodeCommit(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip: %+v vs %+v", got, rec)
	}
}

func TestAppliedRoundTrip(t *testing.T) {
	rec := &AppliedRec{CommitLSN: 555}
	got, err := DecodeApplied(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.CommitLSN != 555 {
		t.Errorf("got %+v", got)
	}
}

// A checkpoint item is its name and value, and nothing else:
// "flight/A" = 25 takes 1+8 B of name and 1 B of value. It carries no
// applied LSN — the image holds exactly the records below the
// checkpoint, and replay starts into it — and no stamp: a restart
// floors every stamp at the clock reservation.
func TestCheckpointItemSize(t *testing.T) {
	empty := len((&CheckpointRec{}).Encode())
	one := len((&CheckpointRec{Items: []CheckpointItem{{Item: "flight/A", Value: 25}}}).Encode())
	if got := one - empty; got != 10 {
		t.Errorf("one checkpoint item takes %d B, want 10", got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rec := &CheckpointRec{
		Items: []CheckpointItem{
			{Item: "flight/A", Value: 25},
			{Item: "acct/z", Value: 0},
		},
		Channels: []VmChannelState{
			{
				Peer: 2, OutSeq: 10, CumAck: 8,
				Pending: []VmOut{{To: 2, Seq: 9, Item: "flight/A", Amount: 3, ReqTxn: tstamp.Make(4, 2)}},
				InLow:   5, InAbove: []uint64{7, 9},
			},
			{Peer: 3},
		},
		Clock: 77,
	}
	got, err := DecodeCheckpoint(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, rec)
	}
}

func TestCheckpointEmpty(t *testing.T) {
	rec := &CheckpointRec{Clock: 5}
	got, err := DecodeCheckpoint(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Clock != 5 || len(got.Items) != 0 || len(got.Channels) != 0 {
		t.Errorf("got %+v", got)
	}
}

// A reservation is its bound alone: one varint, 3 B for a bound near
// the first stride.
func TestClockRoundTrip(t *testing.T) {
	for _, b := range []uint64{0, 1 << 16, 5<<16 + 7, tstamp.MaxCounter} {
		rec := &ClockRec{Bound: b}
		got, err := DecodeClock(rec.Encode())
		if err != nil || *got != *rec {
			t.Errorf("bound %d: round trip %+v, %v", b, got, err)
		}
	}
	if n := len((&ClockRec{Bound: 1<<16 + 1}).Encode()); n != 3 {
		t.Errorf("a reservation near the first stride takes %d B, want 3", n)
	}
}

func TestPrepareDecisionRoundTrip(t *testing.T) {
	p := &PrepareRec{
		Txn:    tstamp.Make(4, 2),
		Coord:  1,
		Writes: []Action{{Item: "x", Delta: -1}},
	}
	gp, err := DecodePrepare(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gp, p) {
		t.Errorf("prepare: %+v vs %+v", gp, p)
	}
	d := &DecisionRec{Txn: tstamp.Make(4, 2), Commit: true}
	gd, err := DecodeDecision(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gd, d) {
		t.Errorf("decision: %+v vs %+v", gd, d)
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	garbage := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeVmCreate(garbage[:1]); err == nil {
		t.Error("VmCreate decoded garbage")
	}
	if _, err := DecodeVmAccept(garbage[:2]); err == nil {
		t.Error("VmAccept decoded garbage")
	}
	if _, err := DecodeCommit(nil); err == nil {
		t.Error("Commit decoded empty")
	}
	if _, err := DecodeApplied(nil); err == nil {
		t.Error("Applied decoded empty")
	}
	if _, err := DecodeCheckpoint(nil); err == nil {
		t.Error("Checkpoint decoded empty")
	}
	if _, err := DecodePrepare(nil); err == nil {
		t.Error("Prepare decoded empty")
	}
	if _, err := DecodeDecision(nil); err == nil {
		t.Error("Decision decoded empty")
	}
}

func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		_, _ = DecodeVmCreate(garbage)
		_, _ = DecodeVmAccept(garbage)
		_, _ = DecodeCommit(garbage)
		_, _ = DecodeApplied(garbage)
		_, _ = DecodeCheckpoint(garbage)
		_, _ = DecodePrepare(garbage)
		_, _ = DecodeDecision(garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCommitRoundTripProperty(t *testing.T) {
	f := func(txn uint64, item string, delta int32, from uint16, seqs []uint64) bool {
		rec := &CommitRec{
			Txn:     tstamp.TS(txn),
			Actions: []Action{{Item: ident.ItemID(item), Delta: core.Value(delta), SetTS: tstamp.TS(txn)}},
		}
		for _, seq := range seqs {
			rec.Accepted = append(rec.Accepted, VmRef{From: ident.SiteID(from), Seq: seq})
		}
		got, err := DecodeCommit(rec.Encode())
		return err == nil && reflect.DeepEqual(got, rec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A commit states its timestamp once: every action decodes stamped with
// Txn whatever stamp it was encoded with, and Txn 0 (an initial
// placement) means no stamp. The accepted list costs a commit that has
// none no byte at all, and one that has some the list and nothing more.
func TestCommitNamesItsStampOnce(t *testing.T) {
	ts := tstamp.Make(70000, 1)
	acts := []Action{{Item: "it/17", Delta: -1, SetTS: ts}}
	plain := (&CommitRec{Txn: ts, Actions: acts}).Encode()
	unstamped := (&CommitRec{Txn: ts, Actions: []Action{{Item: "it/17", Delta: -1}}}).Encode()
	if !reflect.DeepEqual(plain, unstamped) {
		t.Errorf("an action's stamp is encoded: %x vs %x", plain, unstamped)
	}
	got, err := DecodeCommit(unstamped)
	if err != nil || got.Actions[0].SetTS != ts {
		t.Fatalf("decoded %+v, %v; want the action stamped %v", got, err, ts)
	}
	// Txn, a one-byte head, "it/17" with its length, a one-byte delta.
	if want := len(encodeTS(ts)) + 1 + 6 + 1; len(plain) != want {
		t.Errorf("plain commit is %d bytes, want %d", len(plain), want)
	}
	placement, err := DecodeCommit((&CommitRec{Actions: []Action{{Item: "a", Delta: 5}}}).Encode())
	if err != nil || !placement.Actions[0].SetTS.IsZero() {
		t.Errorf("Txn 0 decoded %+v, %v; want an unstamped action", placement, err)
	}
	folded := (&CommitRec{Txn: ts, Actions: acts, Accepted: []VmRef{{From: 2, Seq: 41}, {From: 3, Seq: 7}}}).Encode()
	// The list's count, then 1 byte of site and 1 of seq per Vm.
	if extra := len(folded) - len(plain); extra != 1+2*2 {
		t.Errorf("a list of two Vm costs %d bytes, want 5", extra)
	}
}

// A create with one action names its item once: a Vm for that item
// leaves it out and decodes with it, a Vm for another item spells it.
func TestVmCreateNamesItsItemOnce(t *testing.T) {
	rec := func(vmItem ident.ItemID) *VmCreateRec {
		return &VmCreateRec{
			Actions: []Action{{Item: "it/17", Delta: -1, SetTS: 9}},
			Msgs:    []VmOut{{To: 2, Seq: 4, Item: vmItem, Amount: 1, ReqTxn: 9}},
		}
	}
	same, other := rec("it/17").Encode(), rec("it/18").Encode()
	if len(other)-len(same) != 6 {
		t.Errorf("a Vm for the action's item saves %d bytes, want its 6", len(other)-len(same))
	}
	for _, r := range []*VmCreateRec{rec("it/17"), rec("it/18")} {
		got, err := DecodeVmCreate(r.Encode())
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Errorf("round trip: %+v, %v; want %+v", got, err, r)
		}
	}
}

// A create with one action states its stamp once: a Vm prompted by the
// transaction that stamped the action (Conc1's every grant) leaves its
// ReqTxn out and decodes with it; any other ReqTxn, on any Vm of the
// record, is spelled out on each.
func TestVmCreateNamesItsStampOnce(t *testing.T) {
	ts := tstamp.Make(70000, 1)
	rec := func(setTS tstamp.TS, reqs ...tstamp.TS) *VmCreateRec {
		r := &VmCreateRec{Actions: []Action{{Item: "it/17", Delta: -1, SetTS: setTS}}}
		for i, req := range reqs {
			r.Msgs = append(r.Msgs, VmOut{To: 2, Seq: uint64(4 + i), Item: "it/17", Amount: 1, ReqTxn: req})
		}
		return r
	}
	same, other := rec(ts, ts).Encode(), rec(ts, ts+1).Encode()
	if want := len(encodeTS(ts)); len(other)-len(same) != want {
		t.Errorf("a grant at the action's stamp saves %d bytes, want its %d", len(other)-len(same), want)
	}
	for _, r := range []*VmCreateRec{
		rec(ts, ts), rec(ts, ts+1), rec(ts, ts, ts), rec(ts, ts, 0), rec(0, 0), rec(0, ts),
		{Actions: []Action{{Item: "a", SetTS: ts}, {Item: "b", SetTS: ts}},
			Msgs: []VmOut{{To: 3, Seq: 1, Item: "a", ReqTxn: ts}}},
	} {
		got, err := DecodeVmCreate(r.Encode())
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Errorf("round trip: %+v, %v; want %+v", got, err, r)
		}
	}
}

func encodeTS(ts tstamp.TS) []byte {
	var w wire.Writer
	w.TS(ts)
	return w.Bytes()
}

// The acceptance accessor names the one Vm an acceptance record
// accepts, the list a commit carries, and nothing for any other kind.
func TestAccepted(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
		want []VmRef
	}{
		{"vm-accept", Record{Kind: RecVmAccept, Data: (&VmAcceptRec{From: 2, Seq: 9, Actions: []Action{{Item: "x", Delta: 1}}}).Encode()},
			[]VmRef{{From: 2, Seq: 9}}},
		{"folding commit", Record{Kind: RecCommit, Data: (&CommitRec{Txn: 5, Accepted: []VmRef{{From: 2, Seq: 3}, {From: 4, Seq: 1}}}).Encode()},
			[]VmRef{{From: 2, Seq: 3}, {From: 4, Seq: 1}}},
		{"plain commit", Record{Kind: RecCommit, Data: (&CommitRec{Txn: 5, Actions: []Action{{Item: "x", Delta: 1}}}).Encode()}, nil},
		{"vm-create", Record{Kind: RecVmCreate, Data: (&VmCreateRec{}).Encode()}, nil},
	} {
		got, err := Accepted(tc.rec)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Accepted = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := Accepted(Record{Kind: RecCommit, Data: []byte{0xFF}}); err == nil {
		t.Error("Accepted read a list out of a commit that does not decode")
	}
}

// Every decoder refuses a count above its bound and a payload with
// bytes left over, instead of decoding a record that says less than
// its bytes do.
func TestDecodersRejectMalformed(t *testing.T) {
	enc := func(fn func(w *wire.Writer)) []byte {
		var w wire.Writer
		fn(&w)
		return w.Bytes()
	}
	trailing := func(valid []byte) []byte { return append(append([]byte(nil), valid...), 1, 2, 3) }
	decoders := map[string]func([]byte) error{
		"vm-create":  func(b []byte) error { _, err := DecodeVmCreate(b); return err },
		"vm-accept":  func(b []byte) error { _, err := DecodeVmAccept(b); return err },
		"commit":     func(b []byte) error { _, err := DecodeCommit(b); return err },
		"applied":    func(b []byte) error { _, err := DecodeApplied(b); return err },
		"checkpoint": func(b []byte) error { _, err := DecodeCheckpoint(b); return err },
		"prepare":    func(b []byte) error { _, err := DecodePrepare(b); return err },
		"decision":   func(b []byte) error { _, err := DecodeDecision(b); return err },
		"clock":      func(b []byte) error { _, err := DecodeClock(b); return err },
	}
	const over = 70000
	cases := []struct {
		kind, name string
		data       []byte
	}{
		{"vm-create", "actions over bound", enc(func(w *wire.Writer) { w.U64(over) })},
		{"vm-create", "vm over bound", enc(func(w *wire.Writer) { w.U64(0); w.U64(over << 2) })},
		{"vm-create", "trailing", trailing((&VmCreateRec{Actions: []Action{{Item: "x", Delta: -1}}}).Encode())},
		{"vm-create", "item implied by no action", enc(func(w *wire.Writer) {
			w.U64(0)
			w.U64(1<<2 | 1)
			w.Site(2)
			w.U64(1)
			w.I64(1)
			w.TS(0)
			w.U64(0)
		})},
		{"vm-accept", "actions over bound", enc(func(w *wire.Writer) { w.Site(2); w.U64(1); w.U64(over) })},
		{"vm-accept", "trailing", trailing((&VmAcceptRec{From: 2, Seq: 1}).Encode())},
		{"commit", "actions over bound", enc(func(w *wire.Writer) { w.TS(9); w.U64(over << 1) })},
		{"commit", "accepted over bound", enc(func(w *wire.Writer) { w.TS(9); w.U64(1); w.U64(over) })},
		{"commit", "trailing", trailing((&CommitRec{Txn: 9, Actions: []Action{{Item: "x", Delta: 1}}}).Encode())},
		{"applied", "trailing", trailing((&AppliedRec{CommitLSN: 4}).Encode())},
		{"checkpoint", "items over bound", enc(func(w *wire.Writer) { w.U64(1<<20 + 1) })},
		{"checkpoint", "channels over bound", enc(func(w *wire.Writer) { w.U64(0); w.U64(over) })},
		{"checkpoint", "pending over bound", enc(func(w *wire.Writer) {
			w.U64(0)
			w.U64(1)
			w.Site(2)
			w.U64(0)
			w.U64(0)
			w.U64(over << 2)
		})},
		{"checkpoint", "trailing", trailing((&CheckpointRec{Clock: 3}).Encode())},
		{"checkpoint", "item with an applied LSN", enc(func(w *wire.Writer) {
			w.U64(1)
			w.String("x")
			w.I64(1)
			w.TS(9)
			w.U64(40) // the field the format no longer has: read as 40 channels
			w.U64(0)
			w.U64(3)
		})},
		{"checkpoint", "pending item implied", enc(func(w *wire.Writer) {
			w.U64(0)
			w.U64(1)
			w.Site(2)
			w.U64(0)
			w.U64(0)
			w.U64(1<<2 | 1)
		})},
		{"prepare", "writes over bound", enc(func(w *wire.Writer) { w.TS(9); w.Site(1); w.U64(over) })},
		{"prepare", "trailing", trailing((&PrepareRec{Txn: 9, Coord: 1}).Encode())},
		{"decision", "trailing", trailing((&DecisionRec{Txn: 9, Commit: true}).Encode())},
		{"clock", "bound over the largest counter", enc(func(w *wire.Writer) { w.U64(tstamp.MaxCounter + 1) })},
		{"clock", "trailing", trailing((&ClockRec{Bound: 1 << 16}).Encode())},
		{"clock", "empty", nil},
		{"checkpoint", "clock over the largest counter", enc(func(w *wire.Writer) { w.U64(0); w.U64(0); w.U64(tstamp.MaxCounter + 1) })},
	}
	for _, c := range cases {
		if err := decoders[c.kind](c.data); err == nil {
			t.Errorf("%s, %s: decoded without error", c.kind, c.name)
		}
	}
}
