package site

import (
	"slices"
	"testing"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
)

// TestDonorRule pins each clause of donorRule, in its order, with the
// sentence of the paper (or of DESIGN) it implements.
func TestDonorRule(t *testing.T) {
	conc1, conc2 := cc.New(cc.Conc1), cc.New(cc.Conc2)
	stamp := tstamp.Make(10, 2)
	older, newer := tstamp.Make(9, 1), tstamp.Make(11, 1)
	held := itemView{stamp: stamp, have: 30}
	for _, row := range []struct {
		name   string
		source string
		view   itemView
		ask    valueAsk
		policy cc.Policy
		split  core.SplitPolicy
		want   donorVerdict
	}{
		{"locked", `§5: "If there is currently a lock on d_j, site s_j can simply decide not to honor the request"`,
			itemView{locked: true, stamp: stamp, have: 30}, valueAsk{txn: newer, want: 5}, conc1, core.GrantExact{},
			donorVerdict{reason: declineLocked}},
		{"locked outranks cc", `§5's lock test comes first: a locked item is declined whatever the timestamp`,
			itemView{locked: true, stamp: stamp, have: 30}, valueAsk{txn: older, want: 5}, conc1, core.GrantExact{},
			donorVerdict{reason: declineLocked}},
		{"cc declines with an ack", `§6.1, Conc1: a request is honored only if TS(t) > TS(d_j); the decline carries the donor's clock back (DESIGN, *Acks ride the traffic*)`,
			held, valueAsk{txn: older, want: 5}, conc1, core.GrantExact{},
			donorVerdict{reason: declineCC, ack: true}},
		{"cc at the stamp", `§6.1: a timestamp equal to TS(d_j) is not above it`,
			held, valueAsk{txn: stamp, want: 5}, conc1, core.GrantExact{},
			donorVerdict{reason: declineCC, ack: true}},
		{"conc2 admits any stamp", `§6.2: Conc2 admits by lock and arrival order, not by timestamp`,
			held, valueAsk{txn: older, want: 5}, conc2, core.GrantExact{},
			donorVerdict{answer: answerGrant, amount: 5}},
		{"full read meets an outstanding Vm", `§5: a full read gathers "all of Π⁻¹(d)"; a Vm still carrying the item away would be missed`,
			itemView{stamp: stamp, have: 30, outstanding: true}, valueAsk{txn: newer, fullRead: true}, conc1, core.GrantExact{},
			donorVerdict{reason: declineOutstanding}},
		{"full read of nothing", `DESIGN, item 2: a Vm always carries value, so a full read's donor that holds none answers NoShare`,
			itemView{stamp: stamp}, valueAsk{txn: newer, fullRead: true}, conc1, core.GrantExact{},
			donorVerdict{answer: answerNoShare}},
		{"full read takes all", `§5: the full read's donor surrenders its whole share`,
			held, valueAsk{txn: newer, fullRead: true}, conc1, core.GrantExact{},
			donorVerdict{answer: answerGrant, amount: 30}},
		{"outstanding ignored outside full reads", `§5: a partial request needs only some of the share`,
			itemView{stamp: stamp, have: 30, outstanding: true}, valueAsk{txn: newer, want: 5}, conc1, core.GrantExact{},
			donorVerdict{answer: answerGrant, amount: 5}},
		{"split grants", `§5: how much of the local value a donor surrenders is its own business (the split policy)`,
			held, valueAsk{txn: newer, want: 5}, conc1, core.GrantAll{},
			donorVerdict{answer: answerGrant, amount: 30}},
		{"split grants part", `§5: the donor may surrender less than wanted`,
			itemView{stamp: stamp, have: 3}, valueAsk{txn: newer, want: 5}, conc1, core.GrantExact{},
			donorVerdict{answer: answerGrant, amount: 3}},
		{"nothing to give", `§5: not honoring a request is always safe; the requester's timeout bounds it`,
			itemView{stamp: stamp}, valueAsk{txn: newer, want: 5}, conc1, core.GrantExact{},
			donorVerdict{reason: declineNoGrant}},
		{"whole transfer", `§5, an Rds transaction (SendValue): exactly the amount moves`,
			held, valueAsk{txn: newer, want: 30, whole: true}, conc1, core.GrantAll{},
			donorVerdict{answer: answerGrant, amount: 30}},
		{"whole transfer beyond the quota", `§4.1: a bounded decrement may not drive the local value negative`,
			held, valueAsk{txn: newer, want: 31, whole: true}, conc1, core.GrantExact{},
			donorVerdict{reason: declineNoGrant}},
		{"whole transfer locked first", `SendValue takes the donor's order: locked before cc`,
			itemView{locked: true, stamp: stamp, have: 30}, valueAsk{txn: older, want: 5, whole: true}, conc1, core.GrantExact{},
			donorVerdict{reason: declineLocked}},
		{"whole transfer under cc", `§6: Rds transactions are transactions; Conc1 refuses them alike`,
			held, valueAsk{txn: older, want: 5, whole: true}, conc1, core.GrantExact{},
			donorVerdict{reason: declineCC, ack: true}},
	} {
		if got := donorRule(row.view, row.ask, row.policy, row.split); got != row.want {
			t.Errorf("%s (%s): verdict %+v, want %+v", row.name, row.source, got, row.want)
		}
	}
}

// TestRequesterRule pins the requester's rules: whom a transaction asks
// and for how much, when its wait is over, and what its exit does with
// the credits held for it.
func TestRequesterRule(t *testing.T) {
	peers := []ident.SiteID{2, 3, 4}
	short := []itemNeed{{"b", 4}, {"a", 1}}
	for _, row := range []struct {
		name   string
		source string
		reads  []ident.ItemID
		short  []itemNeed
		policy txn.AskPolicy
		start  int
		want   []plannedAsk
	}{
		{"nothing to ask", `§5: for write-only transactions "the initial steps of data redistribution can be ignored"`,
			nil, nil, txn.AskAll, 0, []plannedAsk{}},
		{"full reads ask every peer", `§5: a full read gathers "all of Π⁻¹(d)", in the transaction's read order`,
			[]ident.ItemID{"y", "x"}, nil, txn.AskOne, 0, []plannedAsk{
				{to: 2, item: "y", fullRead: true}, {to: 3, item: "y", fullRead: true}, {to: 4, item: "y", fullRead: true},
				{to: 2, item: "x", fullRead: true}, {to: 3, item: "x", fullRead: true}, {to: 4, item: "x", fullRead: true}}},
		{"shortfalls in fold order", `§5 step 2: a request for each inadequate item, in the order fold lists them`,
			nil, short, txn.AskAll, 0, []plannedAsk{
				{to: 2, item: "b", want: 4}, {to: 3, item: "b", want: 4}, {to: 4, item: "b", want: 4},
				{to: 2, item: "a", want: 1}, {to: 3, item: "a", want: 1}, {to: 4, item: "a", want: 1}}},
		{"one rotating peer", `AskOne: one peer from the rotated start, for the whole shortfall`,
			nil, short, txn.AskOne, 4, []plannedAsk{{to: 3, item: "b", want: 4}, {to: 3, item: "a", want: 1}}},
		{"two peers wrap", `AskTwo: two peers from the rotated start, wrapping`,
			nil, short[:1], txn.AskTwo, 2, []plannedAsk{{to: 4, item: "b", want: 4}, {to: 2, item: "b", want: 4}}},
		{"reads before shortfalls", `§5: a mixed transaction gathers its reads and asks for its shortfalls at once`,
			[]ident.ItemID{"x"}, short[1:], txn.AskOne, 0, []plannedAsk{
				{to: 2, item: "x", fullRead: true}, {to: 3, item: "x", fullRead: true}, {to: 4, item: "x", fullRead: true},
				{to: 2, item: "a", want: 1}}},
	} {
		if got := askPlan(peers, row.reads, row.short, row.policy, row.start); !slices.Equal(got, row.want) {
			t.Errorf("askPlan %s (%s): %v, want %v", row.name, row.source, got, row.want)
		}
	}

	quota := map[ident.ItemID]core.Value{"a": 5, "b": 2}
	for _, row := range []struct {
		name        string
		source      string
		needs       []itemNeed
		reads       []ident.ItemID
		outstanding bool
		answered    bool
		want        bool
	}{
		{"adequate", `§5 step 3: the wait ends once each op item's quota, held credits counted, covers its need`,
			[]itemNeed{{"a", 5}, {"b", 2}}, nil, false, false, true},
		{"short", `§5 step 3: an inadequate item keeps the transaction waiting`,
			[]itemNeed{{"a", 5}, {"b", 3}}, nil, false, true, false},
		{"read gathered", `§5: a full read has "all of Π⁻¹(d)" once every peer has answered`,
			nil, []ident.ItemID{"a"}, false, true, true},
		{"read unanswered", `§5: a peer that has not answered may still hold part of the value`,
			nil, []ident.ItemID{"a"}, false, false, false},
		{"read's own Vm outstanding", `§5: value this site's own Vm carries away is not yet anyone's to read`,
			nil, []ident.ItemID{"a"}, true, true, false},
		{"outstanding ignored without reads", `§5: a write needs only its own quota`,
			[]itemNeed{{"a", 1}}, nil, true, false, true},
	} {
		got := satisfiedRule(row.needs, row.reads,
			func(item ident.ItemID) core.Value { return quota[item] },
			func(ident.ItemID) bool { return row.outstanding },
			func() bool { return row.answered })
		if got != row.want {
			t.Errorf("satisfiedRule %s (%s) = %v, want %v", row.name, row.source, got, row.want)
		}
	}

	for _, row := range []struct {
		name                 string
		source               string
		epochEnded, accepted bool
		want                 bool
	}{
		{"logged", `§6: an aborted transaction degenerates to an Rds transaction, which accepts the Vm it received`, false, false, true},
		{"epoch ended", `§7: the crash drops it unacknowledged; the sender's retransmission brings it back`, true, false, false},
		{"already accepted", `§4.2: a Vm is accepted exactly once, and a commit that failed to apply already accepted it`, false, true, false},
	} {
		if got := keepHeld(row.epochEnded, row.accepted); got != row.want {
			t.Errorf("keepHeld %s (%s) = %v, want %v", row.name, row.source, got, row.want)
		}
	}

	for _, row := range []struct {
		name                   string
		source                 string
		committed, readsInFull bool
		kept                   int
		want                   bool
	}{
		{"abort forces and acks", `DESIGN, *Acks ride the traffic*: an abandoned transaction forces what it logged and acks it ahead of its retry`, false, false, 1, true},
		{"abort with nothing logged", `nothing to ack: the abort settles what the log holds`, false, false, 0, false},
		{"committed write", `DESIGN, *Acks ride the traffic*: the next envelope or the tick carries a write's ack`, true, false, 2, false},
		{"committed full read", `§5's full read: the next reader, at any site, is declined while a donor's Vm is unacked`, true, true, 2, true},
		{"full read of NoShare alone", `a read that gathered no Vm owes no ack`, true, true, 0, false},
	} {
		if got := ackAtOnce(row.committed, row.readsInFull, row.kept); got != row.want {
			t.Errorf("ackAtOnce %s (%s) = %v, want %v", row.name, row.source, got, row.want)
		}
	}
}
