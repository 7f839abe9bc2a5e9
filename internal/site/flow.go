package site

import (
	"sort"

	"dvp/internal/ident"
	"dvp/internal/wire"
)

// FlowVec is one item's value-flow vector: site → writers observed. It
// instruments value flow for exact serializability checking, as a
// per-item *vector clock*: one component per site, counting the
// writers committed at that site. Every value-carrying Vm ships the
// sender's current vector; the receiver max-merges it on acceptance.
// The vector is a field of the item's state (itemState.flow), read and
// written under the item's stripe like everything else there.
//
// The invariant this buys is exact: a full read R observed writer W
// (the k-th writer at site j) if and only if R's merged vector has
// component j ≥ k — because a site's quota always embodies the effects
// of exactly its locally-committed writers plus whatever flowed in,
// and the vector travels with (and only with) the value. The checker
// in internal/cc replays observation sets from these vectors, which
// verifies Conc2 histories (whose equivalent serial order uses the
// §6.2 proof's hypothetical, unobservable timestamps) as well as
// Conc1's.
//
// A scalar (Lamport-style) position is NOT sound here: positions on
// independent flow paths are incomparable, and ordering by them
// fabricates observation where none occurred.
//
// Flow vectors are volatile diagnostics: they reset on crash, so the
// checker applies to crash-free histories (recovery correctness has
// its own tests).
type FlowVec map[ident.SiteID]uint64

// Entries converts to the wire representation, sorted by site.
func (v FlowVec) Entries() []wire.FlowEntry {
	if len(v) == 0 {
		return nil
	}
	out := make([]wire.FlowEntry, 0, len(v))
	for s, c := range v {
		out = append(out, wire.FlowEntry{Site: s, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// writerCommit records a committed writer at this site and returns its
// local writer index (its identity is (site, index)).
func (st *itemState) writerCommit(self ident.SiteID) uint64 {
	if st.flow == nil {
		st.flow = make(FlowVec)
	}
	st.flow[self]++
	return st.flow[self]
}

// flowSnapshot copies the item's current vector (a reader's
// observation set, handed to the OnCommit hook).
func (st *itemState) flowSnapshot() FlowVec {
	out := make(FlowVec, len(st.flow))
	for s, c := range st.flow {
		out[s] = c
	}
	return out
}

// mergeFlow folds the vector a Vm carried into the item's
// (component-wise max).
func (st *itemState) mergeFlow(in []wire.FlowEntry) {
	if len(in) == 0 {
		return
	}
	if st.flow == nil {
		st.flow = make(FlowVec, len(in))
	}
	for _, e := range in {
		if e.Count > st.flow[e.Site] {
			st.flow[e.Site] = e.Count
		}
	}
}
