package site

import (
	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
)

// The site's protocol decisions — §5's donor and requester — as pure
// rules: the mechanism reads what a rule needs under its locks and
// carries out the answer. A rule takes no lock, reads no clock and sends
// nothing (a check.sh gate); rules_test.go pins each clause.

// itemView is what the donor reads of an item under its stripe;
// outstanding (a Vm of its own carries the item away) only for a full read.
type itemView struct {
	locked, outstanding bool
	stamp               tstamp.TS // TS(d_j), stampOf
	have                core.Value
}

// valueAsk is a peer's Request, or SendValue's transfer (whole: exactly
// want or nothing).
type valueAsk struct {
	txn             tstamp.TS
	want            core.Value
	fullRead, whole bool
}

type donorAnswer uint8

const (
	answerDecline donorAnswer = iota // say nothing; the requester's timeout bounds it
	answerNoShare                    // a full read of nothing: an unlogged NoShare
	answerGrant                      // an Rds transaction creates a Vm of amount
)

// donorVerdict is a decline for reason, NoShare or a grant of amount;
// ack sends the donor's clock back.
type donorVerdict struct {
	answer donorAnswer
	reason declineReason
	amount core.Value
	ack    bool
}

// donorRule decides an ask in §5's order: a locked item is not given;
// the scheme (§6.1) refuses a stale stamp and acks, so the next attempt
// draws above it; a full read waits out a Vm still carrying the item
// away and takes the whole share, an empty one as NoShare; any other ask
// takes what the split policy grants (exactly want, if whole), and
// nothing to give is a decline.
func donorRule(v itemView, a valueAsk, policy cc.Policy, split core.SplitPolicy) donorVerdict {
	switch {
	case v.locked:
		return donorVerdict{reason: declineLocked}
	case !policy.AllowLock(a.txn, v.stamp):
		return donorVerdict{reason: declineCC, ack: true}
	case a.fullRead && v.outstanding:
		return donorVerdict{reason: declineOutstanding}
	case a.fullRead && v.have == 0:
		return donorVerdict{answer: answerNoShare}
	case a.fullRead:
		return donorVerdict{answer: answerGrant, amount: v.have}
	}
	var grant core.Value
	if !a.whole {
		grant = split.Grant(v.have, a.want)
	} else if v.have >= a.want {
		grant = a.want
	}
	if grant <= 0 {
		return donorVerdict{reason: declineNoGrant}
	}
	return donorVerdict{answer: answerGrant, amount: grant}
}

// itemNeed is an amount of an item: an op item's need, or a shortfall.
type itemNeed struct {
	item ident.ItemID
	need core.Value
}

// plannedAsk is one §5 step-2 request: a full read, or want of item.
type plannedAsk struct {
	to       ident.SiteID
	item     ident.ItemID
	want     core.Value
	fullRead bool
}

// askPlan lists §5 step 2's requests: each full read, in read order, to
// every peer; then each shortfall, in fold's order, to the policy's
// fanout of peers from the rotated start, each for the whole of it.
func askPlan(peers []ident.SiteID, reads []ident.ItemID, short []itemNeed, policy txn.AskPolicy, start int) []plannedAsk {
	fan := policy.Fanout(len(peers)) // within [0, len(peers)]
	plan := make([]plannedAsk, 0, len(reads)*len(peers)+len(short)*fan)
	for _, item := range reads {
		for _, p := range peers {
			plan = append(plan, plannedAsk{to: p, item: item, fullRead: true})
		}
	}
	for _, sh := range short {
		for k := 0; k < fan; k++ {
			plan = append(plan, plannedAsk{to: peers[(start+k)%len(peers)], item: sh.item, want: sh.need})
		}
	}
	return plan
}

// satisfiedRule is §5 step 3's gate, asking for each fact as it needs
// it: each op item's quota, held credits counted, covers its need, and
// a full read has all of Π⁻¹(d) — no own Vm carries it away, every peer
// has answered.
func satisfiedRule(needs []itemNeed, reads []ident.ItemID, quota func(ident.ItemID) core.Value,
	outstanding func(ident.ItemID) bool, answered func() bool) bool {
	for _, n := range needs {
		if quota(n.item) < n.need {
			return false
		}
	}
	for _, item := range reads {
		if outstanding(item) {
			return false
		}
	}
	return len(reads) == 0 || answered()
}

// keepHeld: an abort logs each credit held for it as an acceptance (§6:
// it degenerates to an Rds transaction) unless its epoch ended, the
// crash dropping the credit, or a failed commit already accepted it.
func keepHeld(epochEnded, accepted bool) bool { return !epochEnded && !accepted }

// ackAtOnce: an exit that kept credits acks their senders once they are
// stable if it aborted or read in full: until then each sender declines
// every full read of the item, the retry's or another site's. A
// committed write's acks ride the traffic.
func ackAtOnce(committed, readsInFull bool, kept int) bool {
	return kept > 0 && (!committed || readsInFull)
}
