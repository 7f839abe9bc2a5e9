// Package store implements a site's local database: the durable
// per-item quota values d_i with their concurrency-control timestamps
// TS(d_i) (paper §6.1).
//
// Durability model: the store plays the role of the database pages on
// disk. A simulated site crash keeps the store (and the log) and
// discards everything else. Each item records the LSN of the last log
// record applied to it, updated atomically with the value — the
// page-LSN technique — which is what makes the §7 redo pass idempotent
// ("the redoing actions must be idempotent in view of the possibility
// of a failure during the recovery phase").
package store

import (
	"fmt"
	"sync"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
)

// Item is the durable state of one local data value.
type Item struct {
	// Val is the local quota d_i.
	Val core.Value
	// TS is the timestamp of the last transaction to have locked the
	// value (Conc1's TS(d_j)).
	TS tstamp.TS
	// AppliedLSN is the LSN of the last log record whose action was
	// applied to this item.
	AppliedLSN uint64
}

// Durable is a site's stable local database. All methods are safe for
// concurrent use.
type Durable struct {
	mu    sync.RWMutex
	items map[ident.ItemID]Item
}

// New returns an empty durable store.
func New() *Durable {
	return &Durable{items: make(map[ident.ItemID]Item)}
}

// Create installs an item with its initial quota (the DvP initial
// distribution, e.g. 25 of 100 seats). Creating an existing item is an
// error: initial placement happens exactly once.
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

// Apply applies one logged action at the given LSN. It is idempotent:
// actions at or below the item's AppliedLSN are skipped (reporting
// false). A delta that would drive the quota negative is a protocol
// violation and returns an error — the transaction layer must have
// checked effectiveness under the lock.
func (d *Durable) Apply(lsn uint64, a wal.Action) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	it := d.items[a.Item]
	if lsn <= it.AppliedLSN {
		return false, nil
	}
	nv := it.Val + a.Delta
	if nv < 0 {
		return false, fmt.Errorf("store: applying %+d to %q (=%d) would go negative", a.Delta, a.Item, it.Val)
	}
	it.Val = nv
	if a.SetTS > it.TS {
		it.TS = a.SetTS
	}
	it.AppliedLSN = lsn
	d.items[a.Item] = it
	return true, nil
}

// ApplyAll applies a record's actions; the count of actions actually
// applied (not skipped) is returned.
func (d *Durable) ApplyAll(lsn uint64, actions []wal.Action) (int, error) {
	applied := 0
	for _, a := range actions {
		ok, err := d.Apply(lsn, a)
		if err != nil {
			return applied, err
		}
		if ok {
			applied++
		}
	}
	return applied, nil
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

// Snapshot captures every item for a checkpoint record.
func (d *Durable) Snapshot() []wal.CheckpointItem {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]ident.ItemID, 0, len(d.items))
	for id := range d.items {
		ids = append(ids, id)
	}
	out := make([]wal.CheckpointItem, 0, len(ids))
	for _, id := range ident.SortItems(ids) {
		it := d.items[id]
		out = append(out, wal.CheckpointItem{
			Item: id, Value: it.Val, TS: it.TS, AppliedLSN: it.AppliedLSN,
		})
	}
	return out
}

// RestoreCheckpoint loads a checkpoint snapshot, replacing current
// contents. Used when recovery starts from a checkpoint record.
func (d *Durable) RestoreCheckpoint(items []wal.CheckpointItem) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.items = make(map[ident.ItemID]Item, len(items))
	for _, ci := range items {
		d.items[ci.Item] = Item{Val: ci.Value, TS: ci.TS, AppliedLSN: ci.AppliedLSN}
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
