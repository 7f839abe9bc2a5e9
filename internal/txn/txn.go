// Package txn defines transactions as data: the operations a client
// hands to a site for single-site execution (paper §5). The execution
// engine lives in internal/site; keeping descriptions separate lets
// workloads, examples and tests build transactions without pulling in
// the runtime.
package txn

import (
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// ItemOp applies one partitionable operator to one data item.
type ItemOp struct {
	Item ident.ItemID
	Op   core.Op
}

// AskPolicy chooses which remote sites receive quota requests when the
// local value is inadequate (§3: "a request for at least three seats
// is sent by site X to one or more sites among W, Y and Z" — the
// choice is a policy the paper leaves open; experiment F1 sweeps it).
type AskPolicy uint8

// Ask policies.
const (
	// AskAll broadcasts the request to every other site. Fastest to
	// satisfy, most message traffic, and can over-drain peers.
	AskAll AskPolicy = iota + 1
	// AskOne asks a single (rotating) peer, retries are left to the
	// timeout. Minimal traffic, highest abort risk.
	AskOne
	// AskTwo asks two rotating peers: a middle ground.
	AskTwo
)

func (p AskPolicy) String() string {
	switch p {
	case AskAll:
		return "ask-all"
	case AskOne:
		return "ask-one"
	case AskTwo:
		return "ask-two"
	default:
		return "ask?"
	}
}

// Fanout returns how many peers the policy addresses out of n.
func (p AskPolicy) Fanout(n int) int {
	switch p {
	case AskOne:
		if n < 1 {
			return n
		}
		return 1
	case AskTwo:
		if n < 2 {
			return n
		}
		return 2
	default:
		return n
	}
}

// Txn describes one transaction. Ops are applied in order; Reads are
// full reads in the traditional sense (they gather all of Π⁻¹(d)
// locally first). The zero Timeout selects the site's default.
type Txn struct {
	Ops     []ItemOp
	Reads   []ident.ItemID
	Timeout time.Duration
	Ask     AskPolicy
	// Label tags the transaction for metrics ("reserve", "cancel",
	// "audit", ...). Purely observational.
	Label string
}

// Items returns the full access set A(t), deduplicated and sorted.
func (t *Txn) Items() []ident.ItemID {
	seen := make(map[ident.ItemID]bool, len(t.Ops)+len(t.Reads))
	var items []ident.ItemID
	for _, op := range t.Ops {
		if !seen[op.Item] {
			seen[op.Item] = true
			items = append(items, op.Item)
		}
	}
	for _, it := range t.Reads {
		if !seen[it] {
			seen[it] = true
			items = append(items, it)
		}
	}
	return ident.SortItems(items)
}

// Needs aggregates, per item, the minimum local quota required to
// apply the transaction's operators effectively (the §5 step-2
// adequacy test). Multiple ops on one item compose in order.
func (t *Txn) Needs() map[ident.ItemID]core.Value {
	byItem := make(map[ident.ItemID][]core.Op)
	for _, op := range t.Ops {
		byItem[op.Item] = append(byItem[op.Item], op.Op)
	}
	needs := make(map[ident.ItemID]core.Value, len(byItem))
	for item, ops := range byItem {
		needs[item] = core.Compose(ops...).Needs()
	}
	return needs
}

// Deltas aggregates, per item, the net value change the transaction
// applies when it commits.
func (t *Txn) Deltas() map[ident.ItemID]core.Value {
	deltas := make(map[ident.ItemID]core.Value)
	for _, op := range t.Ops {
		deltas[op.Item] += op.Op.Delta()
	}
	return deltas
}

// Status is a transaction outcome.
type Status uint8

// Outcomes. Everything except StatusCommitted is an abort; the paper's
// protocol never blocks, so every transaction reaches one of these
// within its timeout bound.
const (
	// StatusCommitted: the §5 step-5 log record is stable.
	StatusCommitted Status = iota + 1
	// StatusLockConflict: a local value in A(t) was locked (no-wait).
	StatusLockConflict
	// StatusCCRejected: Conc1 refused the lock (TS(t) ≤ TS(d_i)).
	StatusCCRejected
	// StatusTimeout: required Vm did not arrive in time (§5 step 3).
	StatusTimeout
	// StatusSiteDown: the executing site crashed before commit.
	StatusSiteDown
)

func (s Status) String() string {
	switch s {
	case StatusCommitted:
		return "committed"
	case StatusLockConflict:
		return "lock-conflict"
	case StatusCCRejected:
		return "cc-rejected"
	case StatusTimeout:
		return "timeout"
	case StatusSiteDown:
		return "site-down"
	default:
		return "status?"
	}
}

// Result reports the outcome of running a transaction.
type Result struct {
	Status Status
	// TS is the transaction's timestamp/identifier (zero if the
	// transaction never got far enough to draw one).
	TS tstamp.TS
	// Reads holds the observed value of each full read (committed
	// transactions only).
	Reads map[ident.ItemID]core.Value
	// Latency is the local wall time from initiation to decision —
	// the §2 "bounded number of steps as measured locally".
	Latency time.Duration
	// RequestsSent counts quota requests dispatched in step 2.
	RequestsSent int
	// VmAccepted counts virtual messages this transaction accepted
	// while holding its locks.
	VmAccepted int
}

// Committed reports whether the transaction committed.
func (r *Result) Committed() bool { return r.Status == StatusCommitted }
