// Package wal implements the stable logging facility the paper's
// whole construction rests on: a virtual message *is* a log record
// ("a Vm comes into existence the moment a log record indicating a
// message dispatch ... is created", §4.2), and a transaction *is*
// committed the moment its `[database-actions]` record is stable
// (§5 step 5).
//
// Two devices are provided: MemLog, an in-memory stable log for
// simulation (its records survive a simulated site crash, which loses
// everything else), and FileLog, a real append-only file
// for the dvpnode binary that writes each force as one CRC-protected
// frame and drops a torn one whole at reopen. A site's log is always a
// GroupLog over one device, so its records are forced in groups, on
// demand, off the item's stripe.
package wal

import (
	"errors"
	"fmt"
)

// RecordKind discriminates log record types.
type RecordKind uint8

// Log record kinds. The first group realizes the paper's protocol
// records; the second serves the 2PC baseline (force-written prepare
// and decision records are what create the in-doubt window DvP
// avoids).
const (
	// RecVmCreate is the §4.2 record `[database-actions,
	// message-sequence]`: quota deductions plus the Vm to dispatch,
	// as one atomic record. Its stability is the birth of the Vm.
	RecVmCreate RecordKind = iota + 1
	// RecVmAccept is the receiver-side record completing a Vm's
	// lifespan: `[database-actions]` crediting the received value.
	RecVmAccept
	// RecCommit is the §5 step-5 record `[database-actions, accepted
	// Vm]`; its stability is the commit point of a transaction and the
	// acceptance of every Vm the transaction consumed.
	RecCommit
	// RecApplied is the §5 step-6 record noting the database changes
	// have been carried out. Nothing writes it any more: a restart
	// rebuilds the store from the log, so redo needs no marker. The
	// kind stays so that its number is not reused.
	RecApplied
	// RecCheckpoint snapshots store state to bound log scans (§7:
	// "by using checkpointing mechanisms, the number of redo actions
	// required can be reduced in the usual manner").
	RecCheckpoint

	// RecPrepare is the baseline participant's force-written 2PC
	// phase-1 record; a participant with a prepare record and no
	// decision record is in doubt and must block.
	RecPrepare
	// RecDecision is the baseline coordinator/participant decision
	// record.
	RecDecision

	// RecClock reserves Lamport counters: no counter above its bound
	// leaves the site before the record is stable, and a restart
	// resumes the clock from the highest bound its log holds.
	RecClock
	// RecName gives an item its ordinal in the log: every later record
	// refers to the item by it (names.go).
	RecName
)

func (k RecordKind) String() string {
	switch k {
	case RecVmCreate:
		return "vm-create"
	case RecVmAccept:
		return "vm-accept"
	case RecCommit:
		return "commit"
	case RecApplied:
		return "applied"
	case RecCheckpoint:
		return "checkpoint"
	case RecPrepare:
		return "prepare"
	case RecDecision:
		return "decision"
	case RecClock:
		return "clock"
	case RecName:
		return "name"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one stable log record. LSNs are dense and start at 1.
type Record struct {
	LSN  uint64
	Kind RecordKind
	Data []byte
}

// Log is an append-only stable log. An append has two steps: Enqueue
// fixes the record's place in the log, WaitDurable returns once that
// place is stable. Append is the two in sequence and is durable when
// it returns: a crash after Append never loses the record. Durability
// is a prefix property — WaitDurable(l) returning nil means every
// record with LSN ≤ l is stable, so a caller that enqueues several
// records waits once, on the last. A force is something a waiter asks
// for: a queued record is stable no later than the first WaitDurable
// on it or on any later LSN (or Close), and a record nobody waits for
// may stay queued until then. All methods are safe for concurrent use.
type Log interface {
	// Enqueue assigns the record its LSN, which is final on return:
	// records become stable in LSN order or not at all. The log owns
	// data from here on; the caller must not touch it again until the
	// record is known stable (WaitDurable returned, or DurableLSN reached
	// it) or the log has failed. A Device (MemLog, FileLog,
	// NewSlowDevice) has no queue and makes the record stable right
	// here; a site runs it only under a GroupLog.
	Enqueue(kind RecordKind, data []byte) (uint64, error)
	// WaitDurable asks for every record with LSN ≤ lsn to be forced and
	// blocks until it is. lsn must come from Enqueue on this log. An
	// error means the record may never become stable, and neither will
	// any enqueued after it.
	WaitDurable(lsn uint64) error
	// DurableLSN reports the highest LSN known stable, without asking
	// for a force. Logs without a queue return LastLSN.
	DurableLSN() uint64
	// Append is Enqueue then WaitDurable. data is borrowed for the
	// duration of the call only, so callers may encode into pooled
	// scratch and reuse it immediately.
	Append(kind RecordKind, data []byte) (uint64, error)
	// Scan calls fn for every record with LSN ≥ from, in LSN order.
	// fn returning an error stops the scan and propagates the error.
	// The record's Data is valid only until fn returns.
	Scan(from uint64, fn func(Record) error) error
	// LastLSN returns the LSN of the newest record (0 if empty).
	LastLSN() uint64
	// Compact irrevocably drops all records with LSN ≤ upto. Callers
	// compact only up to (not including) their latest checkpoint
	// record, which recovery needs. LSNs are never renumbered: the
	// log simply starts later.
	Compact(upto uint64) error
	// Reset is what a crash does to the log: the force in flight lands,
	// the records still queued and any failure are dropped, and the log
	// resumes at LastLSN()+1. It returns the records dropped; a Device
	// has no queue and drops none. Nobody may wait on the log across it.
	Reset() int
	// Close releases resources. Appends after Close fail.
	Close() error
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// BatchEntry is one record of a batched append: the same (kind, data)
// pair Append takes, minus the LSN, which the log assigns densely in
// batch order.
type BatchEntry struct {
	Kind RecordKind
	Data []byte
}

// BatchAppender is implemented by logs that can make several records
// stable with a single force-write. AppendBatch assigns dense LSNs in
// entry order and returns the first; entry i gets first+i. The whole
// batch becomes durable atomically-enough for group commit: when
// AppendBatch returns nil, every entry is stable; on error, none of
// the batch may be acknowledged (a torn tail is truncated at reopen).
//
// MemLog, FileLog and NewSlowDevice's log all implement it; GroupLog
// uses it to amortize one fsync (or one simulated force-write) over a
// whole commit group.
type BatchAppender interface {
	AppendBatch(entries []BatchEntry) (first uint64, err error)
}

// Device is a log that forces a whole batch with one write — what
// GroupLog and NewSlowDevice wrap. Taking it as the parameter type makes
// "the inner log batches natively" a compile-time condition.
type Device interface {
	Log
	BatchAppender
}

// appendDurably is Append for every implementation: Enqueue, then
// WaitDurable.
func appendDurably(l Log, kind RecordKind, data []byte) (uint64, error) {
	lsn, err := l.Enqueue(kind, data)
	if err != nil {
		return 0, err
	}
	return lsn, l.WaitDurable(lsn)
}
