package wal

import (
	"errors"
	"fmt"

	"dvp/internal/ident"
	"dvp/internal/wire"
)

// A log names each item once. The first record of a site's log that
// mentions an item is preceded by a RecName giving the item an ordinal,
// and every record after it — an action, a Vm whose item no action
// implies — refers to the item by that ordinal:
//
//	item reference = [uvarint ord] ([string name] if ord = 0)
//
// Ordinal 0 spells the name out inline; it is legal anywhere, and is
// all a writer that gives no ordinals (an initial placement appended
// outside a site, the 2PC baseline) ever writes. A checkpoint item
// carries both its ordinal and its name, so a log compacted up to its
// checkpoint still defines every ordinal its suffix refers to.
//
// Ordinals are the log's, not the item's: a site hands them out from a
// counter that a restart resumes above the highest one its log holds.

// NameRec is RecName's payload: from here on, the log refers to Item
// by Ord.
type NameRec struct {
	Ord  uint64
	Item ident.ItemID
}

// Encode serializes the record payload.
func (rec *NameRec) Encode() []byte {
	var w wire.Writer
	rec.EncodeTo(&w)
	return w.Bytes()
}

// EncodeTo appends the record payload to w (byte-identical to Encode).
func (rec *NameRec) EncodeTo(w *wire.Writer) {
	w.U64(rec.Ord)
	w.String(string(rec.Item))
}

// DecodeName parses a RecName payload on its own.
func DecodeName(data []byte) (*NameRec, error) { return new(Names).DecodeName(data) }

// DecodeName parses a RecName payload of n's log and defines its
// ordinal in n. Ordinal 0, an empty name and an ordinal n already gives
// another name are decode errors.
func (n *Names) DecodeName(data []byte) (*NameRec, error) {
	r := wire.NewReader(data)
	rec := &NameRec{Ord: r.U64(), Item: ident.ItemID(r.String())}
	if rec.Ord == 0 {
		r.Fail(errors.New("ordinal 0 names nothing"))
	}
	checkName(r, rec.Item)
	if r.Err() == nil {
		n.define(r, rec.Ord, rec.Item)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: name: %w", err)
	}
	return rec, nil
}

// Names is one log's item table: the name each ordinal stands for.
// Feed it the log's records in LSN order — DecodeName and
// DecodeCheckpoint define what their record defines — and its other
// decoders resolve every reference a record makes to an ordinal defined
// before it; a reference to any other is a decode error, never an
// empty name. The zero value is an empty table. A nil *Names defines
// nothing, so its decoders take only records that spell out every name.
type Names struct {
	items map[uint64]ident.ItemID
}

// Each calls fn for every ordinal the table defines, in no set order.
func (n *Names) Each(fn func(ord uint64, item ident.ItemID)) {
	if n == nil {
		return
	}
	for ord, item := range n.items {
		fn(ord, item)
	}
}

// define gives ord the name item, failing r if ord stands for another.
// A definition the table holds already is no change: a checkpoint
// restates its items' ordinals.
func (n *Names) define(r *wire.Reader, ord uint64, item ident.ItemID) {
	if prev, ok := n.items[ord]; ok {
		if prev != item {
			r.Fail(fmt.Errorf("ordinal %d names %q, not %q", ord, prev, item))
		}
		return
	}
	if n.items == nil {
		n.items = make(map[uint64]ident.ItemID)
	}
	n.items[ord] = item
}

// writeItem appends an item reference: ord, and the name when ord is 0.
func writeItem(w *wire.Writer, ord uint64, item ident.ItemID) {
	w.U64(ord)
	if ord == 0 {
		w.String(string(item))
	}
}

// readItem reads an item reference, resolving an ordinal through n. An
// ordinal n does not define, and an empty inline name, fail r.
func readItem(r *wire.Reader, n *Names) (uint64, ident.ItemID) {
	ord := r.U64()
	if ord == 0 {
		item := ident.ItemID(r.String())
		checkName(r, item)
		return 0, item
	}
	var item ident.ItemID
	var ok bool
	if n != nil {
		item, ok = n.items[ord]
	}
	if !ok && r.Err() == nil {
		r.Fail(fmt.Errorf("ordinal %d is not defined", ord))
	}
	return ord, item
}

// checkName fails r on an empty item name, which no item has.
func checkName(r *wire.Reader, item ident.ItemID) {
	if item == "" && r.Err() == nil {
		r.Fail(errors.New("empty item name"))
	}
}
