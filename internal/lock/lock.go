// Package lock provides the two lock managers the system needs:
//
//   - NoWait: the paper's conservative protocol (§5–§6). Locks are
//     exclusive and never waited for — a conflict is answered
//     immediately with failure, the requester aborts or declines the
//     request, and the system is trivially deadlock-free ("there is no
//     situation where an indefinite amount of waiting is involved",
//     §8).
//
//   - Queue: a conventional blocking manager with shared/exclusive
//     modes and FIFO queues, used by the traditional 2PL+2PC baseline.
//     Waiting is bounded by a caller-supplied timeout; it is the
//     baseline's blocking behaviour that the experiments measure.
//
// Lock state is volatile by design: the paper's recovery (§7) begins
// by discarding the lock table, and concludes lock information "need
// not survive a failure".
package lock

import (
	"sync"

	"dvp/internal/ident"
)

// NoWait is the paper's no-wait exclusive lock table. All methods are
// safe for concurrent use.
type NoWait struct {
	mu     sync.Mutex
	holder map[ident.ItemID]ident.TxnID
	held   map[ident.TxnID][]ident.ItemID
}

// NewNoWait returns an empty no-wait lock table.
func NewNoWait() *NoWait {
	return &NoWait{
		holder: make(map[ident.ItemID]ident.TxnID),
		held:   make(map[ident.TxnID][]ident.ItemID),
	}
}

// TryLock attempts to lock item for txn. It never blocks: the result
// is immediate. Re-locking an item already held by the same txn
// succeeds (idempotent).
func (l *NoWait) TryLock(txn ident.TxnID, item ident.ItemID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if h, ok := l.holder[item]; ok {
		return h == txn
	}
	l.holder[item] = txn
	l.held[txn] = append(l.held[txn], item)
	return true
}

// Unlock releases one item if txn holds it.
func (l *NoWait) Unlock(txn ident.TxnID, item ident.ItemID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.holder[item] != txn {
		return
	}
	delete(l.holder, item)
	items := l.held[txn]
	for i, it := range items {
		if it == item {
			l.held[txn] = append(items[:i], items[i+1:]...)
			break
		}
	}
	if len(l.held[txn]) == 0 {
		delete(l.held, txn)
	}
}

// ReleaseAll releases every lock held by txn (§5 step 7).
func (l *NoWait) ReleaseAll(txn ident.TxnID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, it := range l.held[txn] {
		delete(l.holder, it)
	}
	delete(l.held, txn)
}

// Clear drops the entire lock table — the first step of §7 recovery.
func (l *NoWait) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.holder = make(map[ident.ItemID]ident.TxnID)
	l.held = make(map[ident.TxnID][]ident.ItemID)
}

// Locked reports how many items are currently locked.
func (l *NoWait) Locked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.holder)
}
