package site

import (
	"slices"
	"sync"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// This file is the item-state layer: everything a site knows about an
// item beyond its logged value. store.Durable is the logged half (the
// value alone — what checkpoints and recovery see); the itemState below
// is the volatile half, Conc1's stamp TS(d) among it, one per item,
// kept in one map per admission stripe and guarded by that stripe and
// nothing else. Whoever touches an item — Run's admission and commit
// tail, every message handler, SendValue, the rebalancer — holds its
// stripe already, so there is no second lock, table or key to find the
// state by. Crash clears all of it in one sweep: §7 starts recovery
// from the log alone, and the site's stamp floor stands in for every
// stamp the sweep lost (stampOf).

// itemState is the volatile half of one item's state at this site.
type itemState struct {
	// holder is §5's no-wait lock: the transaction that has locked the
	// item, or NoTxn. Anyone who finds it taken aborts or declines.
	holder ident.TxnID
	// ts is the item's stamp TS(d) this epoch (§6.1): Conc1's lock
	// stamp, and the stamp of every action applied to the item. Read it
	// through stampOf.
	ts tstamp.TS
	// waiter is the holder's §5 step-3 parking record while it awaits
	// Vm, nil when the holder is not waiting (or there is none). A Vm
	// handler reads it under the stripe it already holds.
	waiter *waiter
	// flow is the item's value-flow vector (flow.go).
	flow FlowVec
	// demand is the rebalancer's demand cell (demand.go).
	demand itemDemand
	// ord is the item's ordinal in the site's log, 0 until a record of
	// this epoch or the log recovery read has named it (admission.go:
	// name). It comes from the site's own records alone: a store can
	// hold an item no record of this log has named.
	ord uint64
	// logged is the LSN of the last record applied to the item: a read
	// that writes no record — a full read's NoShare answer, or a
	// transaction that changes nothing — answers only once the log is
	// stable up to it.
	logged uint64
	// deferred parks inbound Vm that found the item locked by a
	// transaction they are not addressed to. §4.2 allows dropping them
	// ("it will eventually be sent again anyway"), but an item locked
	// back-to-back — a skewed site running one deficit transaction
	// after another — would then starve inbound credits for many
	// retransmit intervals. Whoever releases the lock takes the parked
	// Vm in the same step and redelivers them, bounding the wait by the
	// lock hold time.
	deferred []deferredVm
}

// itemAt returns item's state in the given stripe's map, creating it
// on first touch. Entries are never removed — Crash clears them in
// place — so the pointer stays valid for the site's lifetime; its
// fields may be read or written only under the stripe, which the
// caller holds.
func (s *Site) itemAt(stripe int, item ident.ItemID) *itemState {
	st := s.items[stripe][item]
	if st == nil {
		st = &itemState{}
		s.items[stripe][item] = st
	}
	return st
}

// stampOf is the item's stamp TS(d), what every AllowLock test reads:
// its stamp this epoch, floored at the reservation the site restarted
// from. A crash loses every stamp, but none lay above that reservation
// (DESIGN §2, decision 5). Caller holds the item's stripe.
func (s *Site) stampOf(st *itemState) tstamp.TS {
	return max(st.ts, s.floor)
}

// lockItem takes item's stripe and returns it with the item's state —
// the single-item form every message handler starts with.
func (s *Site) lockItem(item ident.ItemID) (*sync.Mutex, *itemState) {
	i := s.stripeOf(item)
	s.stripes[i].Lock()
	return &s.stripes[i], s.itemAt(i, item)
}

// tryLockItems takes the no-wait lock on every item for id, or on none
// if any is held. Caller holds the items' stripes.
func tryLockItems(id ident.TxnID, sts []*itemState) bool {
	for _, st := range sts {
		if st.holder != ident.NoTxn {
			return false
		}
	}
	for _, st := range sts {
		st.holder = id
	}
	return true
}

// releaseItems frees the items id still holds and, in the same step,
// takes the Vm parked behind those locks: the caller redelivers them
// once it has let go of the stripes (redeliver). An item Crash has
// swept meanwhile is no longer id's and is left alone. Caller holds
// the items' stripes.
func releaseItems(id ident.TxnID, sts []*itemState) (parked []deferredVm) {
	for _, st := range sts {
		if st.holder != id {
			continue
		}
		st.holder, st.waiter = ident.NoTxn, nil
		parked = append(parked, st.deferred...)
		st.deferred = nil
	}
	return parked
}

// clearItems is Crash's sweep: stripe by stripe it discards every
// item's volatile state — holders, parked Vm, flow vectors, demand
// cells — and collects the waiters parked in the epoch that is ending
// (each once, however many items it holds) for Crash to wake. An item
// whose waiter carries another epoch belongs to a transaction of a
// newer incarnation that a concurrent Restart let in; it is left
// whole — only that epoch's Crash may fail it.
func (s *Site) clearItems(epoch uint64) (ws []*waiter, parked int) {
	for i := range s.stripes {
		s.stripes[i].Lock()
		for _, st := range s.items[i] {
			if w := st.waiter; w != nil {
				if w.epoch != epoch {
					continue
				}
				if !slices.Contains(ws, w) {
					ws = append(ws, w)
				}
			}
			parked += len(st.deferred)
			*st = itemState{}
		}
		s.stripes[i].Unlock()
	}
	return ws, parked
}

// parkedCredits counts currently parked inbound Vm, exposed as the
// dvp_rebalance_parked_credits gauge.
func (s *Site) parkedCredits() int {
	n := 0
	for i := range s.stripes {
		s.stripes[i].Lock()
		for _, st := range s.items[i] {
			n += len(st.deferred)
		}
		s.stripes[i].Unlock()
	}
	return n
}

// waiter tracks one transaction blocked in §5 step 3 awaiting Vm. Run
// installs it on every item it holds, under lifeMu and the stripes,
// before it lets go of them — so Crash's sweep, which runs behind the
// lifeMu fence, cannot miss it. The identity fields (id, ts, epoch,
// needs, reads) are immutable after publication; the progress fields
// (held, responded) are guarded by mu, which is only ever taken under
// at most the stripe of the item a Vm is for. The epoch tag lets Crash
// wake exactly the waiters of the epoch it ends: a transaction parked
// across a Crash/Restart boundary observes one SiteDown wake, and a
// stale sweep never fails a waiter of a newer epoch.
type waiter struct {
	id    ident.TxnID
	ts    tstamp.TS
	epoch uint64
	// needs: each op item's minimum local quota, in fold's order.
	needs []itemNeed
	// reads: items requiring a full gather, in the transaction's order.
	reads  []ident.ItemID
	notify chan struct{}

	mu sync.Mutex
	// responded tracks, per fully-read item, which peers have answered;
	// it has an entry for the read items alone.
	responded map[ident.ItemID]map[ident.SiteID]bool
	// held are the credits of the Vm addressed to this transaction, in
	// arrival order: counted by the adequacy and full-read checks, seen
	// by nothing else — not the store, not the Vm channels, not a
	// checkpoint — until an exit logs them (inbound_vm.go).
	held []acceptedVm
}

// newWaiter builds a waiter for a transaction entering §5 step 3 in
// the given epoch, needing the listed per-item quota and full reads.
func newWaiter(id ident.TxnID, ts tstamp.TS, epoch uint64, needs []itemNeed, reads []ident.ItemID) *waiter {
	w := &waiter{
		id: id, ts: ts, epoch: epoch, needs: needs, reads: reads,
		responded: make(map[ident.ItemID]map[ident.SiteID]bool, len(reads)),
		notify:    make(chan struct{}, 1),
	}
	for _, item := range reads {
		w.responded[item] = make(map[ident.SiteID]bool)
	}
	return w
}

func (w *waiter) wake() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// hold takes the credit e on this waiter, marking the responding peer
// for a full-read item. It reports false, holding nothing, for a copy
// of a Vm already held. Caller holds the stripe of e's item.
func (w *waiter) hold(e acceptedVm) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, h := range w.held {
		if h.from == e.from && h.seq == e.seq {
			return false
		}
	}
	w.held = append(w.held, e)
	if resp := w.responded[e.item]; resp != nil {
		resp[e.from] = true
	}
	return true
}

// respond marks peer's NoShare answer for the full-read item, and
// reports whether the item is one this waiter reads.
func (w *waiter) respond(item ident.ItemID, peer ident.SiteID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	resp := w.responded[item]
	if resp == nil {
		return false
	}
	resp[peer] = true
	return true
}

// heldCredits returns the held credits; takeHeld also removes them. The
// exit that logs them calls both under the stripes of every item they
// are for, so nothing is held in between.
func (w *waiter) heldCredits() []acceptedVm {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.held
}

func (w *waiter) takeHeld() []acceptedVm {
	w.mu.Lock()
	defer w.mu.Unlock()
	held := w.held
	w.held = nil
	return held
}

// heldOn is what the held credits add to item's local quota.
func (w *waiter) heldOn(item ident.ItemID) core.Value {
	w.mu.Lock()
	defer w.mu.Unlock()
	return creditOn(w.held, item)
}

// acceptedCount counts the Vm held so far (a late Vm may still be
// arriving concurrently; the count is a progress report, not a gate).
func (w *waiter) acceptedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.held)
}

// allResponded reports whether every listed peer has answered every
// full-read item.
func (w *waiter) allResponded(peers []ident.SiteID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, resp := range w.responded {
		for _, p := range peers {
			if !resp[p] {
				return false
			}
		}
	}
	return true
}

// creditOn sums the credits in es that are for item.
func creditOn(es []acceptedVm, item ident.ItemID) core.Value {
	var v core.Value
	for i := range es {
		if es[i].item == item {
			v += es[i].amount
		}
	}
	return v
}
