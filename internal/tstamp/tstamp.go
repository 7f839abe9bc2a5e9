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

// Clock is one site's Lamport clock: one atomic word holding the last
// drawn or observed counter, so drawing a timestamp takes no lock.
// Transactions draw timestamps while the message layer observes
// incoming ones.
type Clock struct {
	site    ident.SiteID
	counter atomic.Uint64
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

// Reset rewinds the counter to zero — the volatile clock of a freshly
// crashed site, before recovery re-learns durable timestamps via
// Restore/Observe.
func (c *Clock) Reset() { c.counter.Store(0) }

// Restore raises the counter to the given value if it is larger (a
// compare-and-swap max); used when a recovering site replays its log
// to re-learn the highest timestamp it had drawn before the crash.
func (c *Clock) Restore(counter uint64) {
	for cur := c.counter.Load(); counter > cur; cur = c.counter.Load() {
		if c.counter.CompareAndSwap(cur, counter) {
			return
		}
	}
}
