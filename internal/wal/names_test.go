package wal

import (
	"reflect"
	"testing"

	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// A RecName defines an ordinal for every record after it: a commit that
// refers to its item by ordinal decodes with the name, and keeps the
// ordinal, so it re-encodes to the same bytes.
func TestNamesResolveReferences(t *testing.T) {
	var n Names
	if _, err := n.DecodeName((&NameRec{Ord: 1, Item: "it/17"}).Encode()); err != nil {
		t.Fatal(err)
	}
	ts := tstamp.Make(70000, 1)
	data := (&CommitRec{Txn: ts, Actions: []Action{{Item: "it/17", Delta: -1, Ord: 1}}}).Encode()
	got, err := n.DecodeCommit(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []Action{{Item: "it/17", Delta: -1, SetTS: ts, Ord: 1}}
	if !reflect.DeepEqual(got.Actions, want) {
		t.Errorf("decoded %+v, want %+v", got.Actions, want)
	}
	if again := got.Encode(); !reflect.DeepEqual(again, data) {
		t.Errorf("re-encoded %x, want %x", again, data)
	}
	acc, err := n.DecodeVmAccept((&VmAcceptRec{From: 2, Seq: 3, Actions: want}).Encode())
	if err != nil || acc.Actions[0].Item != "it/17" {
		t.Errorf("accept decoded %+v, %v", acc, err)
	}
	cr, err := n.DecodeVmCreate((&VmCreateRec{
		Actions: want,
		Msgs:    []VmOut{{To: 2, Seq: 4, Item: "it/17", Amount: 1, ReqTxn: ts}},
	}).Encode())
	if err != nil || cr.Msgs[0].Item != "it/17" {
		t.Errorf("create decoded %+v, %v", cr, err)
	}
}

// A reference to an ordinal the table has not been given is a decode
// error, with any table and with none — never an action on an empty
// name, and never a panic.
func TestUndefinedOrdinalRefused(t *testing.T) {
	data := (&CommitRec{Txn: 9, Actions: []Action{{Item: "x", Delta: 1, Ord: 2}}}).Encode()
	var n Names
	if _, err := n.DecodeName((&NameRec{Ord: 1, Item: "x"}).Encode()); err != nil {
		t.Fatal(err)
	}
	if rec, err := n.DecodeCommit(data); err == nil {
		t.Errorf("undefined ordinal decoded as %+v", rec)
	}
	if rec, err := DecodeCommit(data); err == nil {
		t.Errorf("a reference decoded with no table, as %+v", rec)
	}
	create := (&VmCreateRec{Actions: []Action{{Item: "x", Delta: -1, Ord: 2}}}).Encode()
	if rec, err := n.DecodeVmCreate(create); err == nil {
		t.Errorf("undefined ordinal decoded as %+v", rec)
	}
	if rec, err := DecodeCommit((&CommitRec{Txn: 9, Actions: []Action{{Delta: 1}}}).Encode()); err == nil {
		t.Errorf("an empty inline name decoded as %+v", rec)
	}
}

// A RecName defines a nonzero ordinal as a nonempty name, and an
// ordinal keeps its name for the rest of the log: saying it again is no
// change, naming it otherwise is a decode error.
func TestNameDefinitions(t *testing.T) {
	var n Names
	for _, bad := range []NameRec{{Ord: 0, Item: "x"}, {Ord: 1, Item: ""}} {
		if _, err := n.DecodeName(bad.Encode()); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if _, err := n.DecodeName((&NameRec{Ord: 1, Item: "x"}).Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.DecodeName((&NameRec{Ord: 1, Item: "x"}).Encode()); err != nil {
		t.Errorf("restated definition refused: %v", err)
	}
	if _, err := n.DecodeName((&NameRec{Ord: 1, Item: "y"}).Encode()); err == nil {
		t.Error("ordinal 1 renamed")
	}
	if _, err := n.DecodeCheckpoint((&CheckpointRec{Items: []CheckpointItem{{Item: "y", Ord: 1}}}).Encode()); err == nil {
		t.Error("a checkpoint renamed ordinal 1")
	}
	defined := map[uint64]ident.ItemID{}
	n.Each(func(ord uint64, item ident.ItemID) { defined[ord] = item })
	if !reflect.DeepEqual(defined, map[uint64]ident.ItemID{1: "x"}) {
		t.Errorf("table holds %v", defined)
	}
}

// A checkpoint defines its items' ordinals, and its pending Vm refer to
// their items by them: it decodes alone, and a log compacted up to it
// resolves every reference behind it.
func TestCheckpointDefinesOrdinals(t *testing.T) {
	rec := &CheckpointRec{
		Items: []CheckpointItem{{Item: "a", Value: 4, Ord: 7}, {Item: "b", Value: 1}},
		Channels: []VmChannelState{{Peer: 2, OutSeq: 2, Pending: []VmOut{
			{To: 2, Seq: 1, Item: "a", Amount: 1, ReqTxn: 5},
			{To: 2, Seq: 2, Item: "b", Amount: 1, ReqTxn: 5},
		}}},
	}
	data := rec.Encode()
	// "b" has no ordinal, so its Vm spells it out: ordinal 0, then the
	// name with its length. "a"'s Vm pays one byte for its reference.
	refOnly := &CheckpointRec{Items: rec.Items, Channels: []VmChannelState{{Peer: 2, OutSeq: 2, Pending: rec.Channels[0].Pending[:1]}}}
	inlineOnly := &CheckpointRec{Items: rec.Items, Channels: []VmChannelState{{Peer: 2, OutSeq: 2, Pending: rec.Channels[0].Pending[1:]}}}
	if d := len(inlineOnly.Encode()) - len(refOnly.Encode()); d != 2 {
		t.Errorf("spelling a pending Vm's item out costs %d B more than its reference, want 2", d)
	}
	var n Names
	got, err := n.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, rec.Items) || got.Channels[0].Pending[0].Item != "a" {
		t.Errorf("decoded %+v", got)
	}
	c, err := n.DecodeCommit((&CommitRec{Txn: 6, Actions: []Action{{Item: "a", Delta: -1, Ord: 7}}}).Encode())
	if err != nil || c.Actions[0].Item != "a" {
		t.Errorf("reference behind the checkpoint decoded %+v, %v", c, err)
	}
}
