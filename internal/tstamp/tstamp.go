// Package tstamp implements the paper's timestamping substrate (§6.1,
// §7): Lamport-style logical timestamps with the site identifier
// packed into the low-order bits, so that timestamps are unique across
// sites ("by attaching the site identifier in the low order bits of a
// timestamp — a common scheme", §7).
//
// The same mechanism provides the §7 recovery property: a recovered
// site whose counter is outdated has its clock "bumped-up" by the
// timestamps carried on messages it receives, so outdated timestamps
// are only a temporary problem.
package tstamp

import (
	"fmt"
	"sync/atomic"

	"dvp/internal/ident"
)

// SiteBits is the number of low-order bits of a TS that hold the site
// id. 16 bits allows 65535 sites, far beyond any experiment here,
// while leaving 48 bits of counter.
const SiteBits = 16

const siteMask = (1 << SiteBits) - 1

// TS is a packed timestamp: counter<<SiteBits | site. The zero TS is
// smaller than every timestamp any transaction can draw, and is used
// as the initial timestamp of every data value.
type TS uint64

// Make builds a TS from a counter and a site.
func Make(counter uint64, site ident.SiteID) TS {
	return TS(counter<<SiteBits | uint64(site)&siteMask)
}

// Counter returns the logical counter part of the timestamp.
func (t TS) Counter() uint64 { return uint64(t) >> SiteBits }

// Site returns the site that drew this timestamp.
func (t TS) Site() ident.SiteID { return ident.SiteID(uint64(t) & siteMask) }

// Ceil returns the largest timestamp with the given counter: at or
// above every timestamp any site draws with a counter up to it.
func Ceil(counter uint64) TS { return Make(counter, siteMask) }

// IsZero reports whether t is the zero timestamp.
func (t TS) IsZero() bool { return t == 0 }

// String renders "c@s3" (counter at site).
func (t TS) String() string {
	if t.IsZero() {
		return "ts0"
	}
	return fmt.Sprintf("%d@%s", t.Counter(), t.Site())
}

// Txn converts the timestamp to the transaction id it names; per §6.1
// the timestamp of a transaction "also serves as its identifier".
func (t TS) Txn() ident.TxnID { return ident.TxnID(t) }

// Stride is how far past a counter a clock reservation reaches: a site
// logs one reservation per Stride counters it draws or observes.
const Stride = 1 << 16

// MaxCounter is the largest counter a TS can hold.
const MaxCounter = 1<<(64-SiteBits) - 1

// Clock is one site's Lamport clock: one atomic word holding the last
// drawn or observed counter, so drawing a timestamp takes no lock.
// Transactions draw timestamps while the message layer observes
// incoming ones.
//
// Beside the counter the clock keeps its reservation, the bound a
// restart resumes from (DESIGN §2, decision 5): bound is the highest
// reserved counter known stable in the site's log, claim the highest
// one anyone has begun to log. The site, which owns the log, writes the
// records; the clock only keeps the two words.
type Clock struct {
	site    ident.SiteID
	counter atomic.Uint64
	bound   atomic.Uint64
	claim   atomic.Uint64
}

// NewClock returns a clock for the given site, starting at counter 0.
func NewClock(site ident.SiteID) *Clock {
	return &Clock{site: site}
}

// Site returns the owning site.
func (c *Clock) Site() ident.SiteID { return c.site }

// Next draws a fresh timestamp strictly greater than every timestamp
// previously drawn by or observed at this site.
func (c *Clock) Next() TS {
	return Make(c.counter.Add(1), c.site)
}

// Observe folds a remote timestamp into the clock (the Lamport
// "receive" rule). After Observe(ts), Next() > ts. This is the §7
// bump-up that heals a recovered site's outdated counter.
func (c *Clock) Observe(ts TS) { c.Restore(ts.Counter()) }

// Current returns the last drawn counter value (for introspection and
// checkpointing; recovery restores it with Restore).
func (c *Clock) Current() uint64 { return c.counter.Load() }

// Reset rewinds the counter and the reservation to zero — the volatile
// clock of a freshly crashed site, before recovery re-learns its
// reservation via Restore and Reserve.
func (c *Clock) Reset() {
	c.counter.Store(0)
	c.bound.Store(0)
	c.claim.Store(0)
}

// Restore raises the counter to the given value if it is larger (a
// compare-and-swap max); used when a recovering site resumes from the
// reservation its log holds.
func (c *Clock) Restore(counter uint64) { raise(&c.counter, counter) }

// Bound returns the stable reservation: no counter above it may leave
// the site.
func (c *Clock) Bound() uint64 { return c.bound.Load() }

// Claim returns the bound of a reservation covering counter n, n plus
// Stride, after raising the claimed bound to it. Call it before the
// reservation's record is enqueued, so that whoever reads Claimed after
// the enqueue sees the bound.
func (c *Clock) Claim(n uint64) uint64 {
	b := min(n+Stride, MaxCounter)
	raise(&c.claim, b)
	return b
}

// Claimed returns the highest bound a reservation has been begun for,
// stable or not.
func (c *Clock) Claimed() uint64 { return c.claim.Load() }

// Reserve records that a reservation of bound b is stable.
func (c *Clock) Reserve(b uint64) {
	raise(&c.claim, b)
	raise(&c.bound, b)
}

// raise sets w to v if v is larger (a compare-and-swap max).
func raise(w *atomic.Uint64, v uint64) {
	for cur := w.Load(); v > cur; cur = w.Load() {
		if w.CompareAndSwap(cur, v) {
			return
		}
	}
}
