// Package store implements a site's local database: the per-item quota
// values d_i with their concurrency-control timestamps TS(d_i) (paper
// §6.1).
//
// Durability model: the store is volatile. Every change a site makes
// to it is an action of a log record, but for Conc1's lock stamp
// (SetTS); a crash loses the contents, and recovery rebuilds them from
// the log — the last checkpoint's image, then the records after it.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
)

// Item is the state of one local data value.
type Item struct {
	// Val is the local quota d_i.
	Val core.Value
	// TS is the timestamp of the last transaction to have locked the
	// value (Conc1's TS(d_j)).
	TS tstamp.TS
}

// Durable is a site's local database, rebuilt from its log at every
// restart. All methods are safe for concurrent use.
type Durable struct {
	mu    sync.RWMutex
	items map[ident.ItemID]Item
}

// New returns an empty durable store.
func New() *Durable {
	return &Durable{items: make(map[ident.ItemID]Item)}
}

// Create installs an item with its initial quota without a log record,
// for a store used on its own; a site logs its placement (site.Place).
// Creating an existing item is an error.
func (d *Durable) Create(item ident.ItemID, val core.Value) error {
	if val < 0 {
		return fmt.Errorf("store: %w: %d", core.ErrNegative, val)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.items[item]; ok {
		return fmt.Errorf("store: item %q already exists", item)
	}
	d.items[item] = Item{Val: val}
	return nil
}

// Get returns the durable state of item.
func (d *Durable) Get(item ident.ItemID) (Item, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	it, ok := d.items[item]
	return it, ok
}

// Value returns the local quota of item (zero if unknown; a site that
// has never held quota for an item holds zero of it).
func (d *Durable) Value(item ident.ItemID) core.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.items[item].Val
}

// SetTS advances the concurrency-control timestamp of item (Conc1
// locks and stamps in one atomic step; the store write is the stamp).
// Unknown items are created with zero quota: a request for an item can
// reach a site before any value of it does.
func (d *Durable) SetTS(item ident.ItemID, ts tstamp.TS) {
	d.mu.Lock()
	defer d.mu.Unlock()
	it := d.items[item]
	if ts > it.TS {
		it.TS = ts
	}
	d.items[item] = it
}

// ApplyAll applies a record's actions, in order; lsn names the record
// in errors. A delta that would drive a quota negative is a protocol
// violation — the transaction layer must have checked effectiveness
// under the lock — and stops the record there with an error, leaving
// that item unchanged. It returns the count of actions applied.
func (d *Durable) ApplyAll(lsn uint64, actions []wal.Action) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, a := range actions {
		it := d.items[a.Item]
		nv := it.Val + a.Delta
		if nv < 0 {
			return i, fmt.Errorf("store: LSN %d: applying %+d to %q (=%d) would go negative", lsn, a.Delta, a.Item, it.Val)
		}
		it.Val = nv
		if a.SetTS > it.TS {
			it.TS = a.SetTS
		}
		d.items[a.Item] = it
	}
	return len(actions), nil
}

// Items returns the ids of all known items (sorted, for deterministic
// iteration).
func (d *Durable) Items() []ident.ItemID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]ident.ItemID, 0, len(d.items))
	for id := range d.items {
		out = append(out, id)
	}
	return ident.SortItems(out)
}

// Snapshot captures every item for a checkpoint record, sorted by id.
func (d *Durable) Snapshot() []wal.CheckpointItem {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]wal.CheckpointItem, 0, len(d.items))
	for id, it := range d.items {
		out = append(out, wal.CheckpointItem{Item: id, Value: it.Val, TS: it.TS})
	}
	slices.SortFunc(out, func(a, b wal.CheckpointItem) int { return cmp.Compare(a.Item, b.Item) })
	return out
}

// RestoreCheckpoint replaces the store's contents with a checkpoint
// image — with nothing, given none. Recovery starts every rebuild here.
func (d *Durable) RestoreCheckpoint(items []wal.CheckpointItem) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.items = make(map[ident.ItemID]Item, len(items))
	for _, ci := range items {
		d.items[ci.Item] = Item{Val: ci.Value, TS: ci.TS}
	}
}

// Total sums the local quotas of the given items — a convenience for
// conservation checks in tests and monitors.
func (d *Durable) Total(items ...ident.ItemID) core.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var sum core.Value
	for _, id := range items {
		sum += d.items[id].Val
	}
	return sum
}
