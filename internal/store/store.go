// Package store implements a site's local database: the per-item quota
// values d_i (paper §3). Conc1's timestamps TS(d_i) are not kept here:
// they are volatile item state at the site, under the item's stripe.
//
// Durability model: the store is volatile, and every change a site
// makes to it is an action of a log record: a crash loses the
// contents, and recovery rebuilds them from the log — the last
// checkpoint's image, then the records after it. An item is in the
// store once a record has named it, and only then.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/wal"
)

// Durable is a site's local database — each item's local quota d_i —
// rebuilt from its log at every restart. All methods are safe for
// concurrent use.
type Durable struct {
	mu    sync.RWMutex
	items map[ident.ItemID]core.Value
}

// New returns an empty durable store.
func New() *Durable {
	return &Durable{items: make(map[ident.ItemID]core.Value)}
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
	d.items[item] = val
	return nil
}

// Get returns the local quota of item, and whether a record has named
// the item — placed it, or credited or debited it.
func (d *Durable) Get(item ident.ItemID) (core.Value, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.items[item]
	return v, ok
}

// Value returns the local quota of item (zero if unknown; a site that
// has never held quota for an item holds zero of it).
func (d *Durable) Value(item ident.ItemID) core.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.items[item]
}

// ApplyAll applies a record's actions, in order; lsn names the record
// in errors. A delta that would drive a quota negative is a protocol
// violation — the transaction layer must have checked effectiveness
// under the lock — and stops the record there with an error, leaving
// that item unchanged. An action names its item into the store, at
// zero before its delta: a Vm can credit an item this site never held.
// An action's stamp is the site's to keep, not the store's. It returns
// the count of actions applied.
func (d *Durable) ApplyAll(lsn uint64, actions []wal.Action) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, a := range actions {
		v := d.items[a.Item]
		if v+a.Delta < 0 {
			return i, fmt.Errorf("store: LSN %d: applying %+d to %q (=%d) would go negative", lsn, a.Delta, a.Item, v)
		}
		d.items[a.Item] = v + a.Delta
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
	for id, v := range d.items {
		out = append(out, wal.CheckpointItem{Item: id, Value: v})
	}
	slices.SortFunc(out, func(a, b wal.CheckpointItem) int { return cmp.Compare(a.Item, b.Item) })
	return out
}

// RestoreCheckpoint replaces the store's contents with a checkpoint
// image — with nothing, given none. Recovery starts every rebuild here.
func (d *Durable) RestoreCheckpoint(items []wal.CheckpointItem) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.items = make(map[ident.ItemID]core.Value, len(items))
	for _, ci := range items {
		d.items[ci.Item] = ci.Value
	}
}

// Total sums the local quotas of the given items — a convenience for
// conservation checks in tests and monitors.
func (d *Durable) Total(items ...ident.ItemID) core.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var sum core.Value
	for _, id := range items {
		sum += d.items[id]
	}
	return sum
}
