package wal

import "sync"

// MemLog is an in-memory stable log for simulation. "Stable" is a
// modelling statement: the simulated crash of a site discards the
// site's volatile state but keeps its MemLog, exactly as a disk
// survives a process crash.
type MemLog struct {
	mu      sync.RWMutex
	recs    []Record
	lastLSN uint64
	closed  bool

	// appendHook, when set, is invoked under the lock before each
	// append with the record about to be written; returning an error
	// fails the append. Tests use it to inject "disk full"/crash-at-
	// append faults.
	appendHook func(Record) error
}

// NewMemLog returns an empty in-memory stable log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(kind RecordKind, data []byte) (uint64, error) {
	return appendDurably(l, kind, data)
}

// WaitDurable implements Log: a record is stable once Enqueue returns.
func (l *MemLog) WaitDurable(uint64) error { return nil }

// DurableLSN implements Log: every record is stable, so LastLSN.
func (l *MemLog) DurableLSN() uint64 { return l.LastLSN() }

// Reset implements Log: a device has no volatile half.
func (l *MemLog) Reset() int { return 0 }

// Enqueue implements Log.
func (l *MemLog) Enqueue(kind RecordKind, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec := Record{
		LSN:  l.lastLSN + 1,
		Kind: kind,
		Data: append([]byte(nil), data...), // callers may reuse their buffer
	}
	if l.appendHook != nil {
		if err := l.appendHook(rec); err != nil {
			return 0, err
		}
	}
	l.recs = append(l.recs, rec)
	l.lastLSN = rec.LSN
	return rec.LSN, nil
}

// AppendBatch implements BatchAppender: all entries become stable
// under one critical section (in-memory "stability" has no per-record
// force cost, but the dense-LSN contract matters for group commit).
// The appendHook still fires per record; a hook error fails the whole
// batch with no records written, matching the all-or-nothing ack rule.
func (l *MemLog) AppendBatch(entries []BatchEntry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	first := l.lastLSN + 1
	recs := make([]Record, len(entries))
	for i, e := range entries {
		recs[i] = Record{
			LSN:  first + uint64(i),
			Kind: e.Kind,
			Data: append([]byte(nil), e.Data...),
		}
		if l.appendHook != nil {
			if err := l.appendHook(recs[i]); err != nil {
				return 0, err
			}
		}
	}
	l.recs = append(l.recs, recs...)
	l.lastLSN = first + uint64(len(entries)) - 1
	return first, nil
}

// Scan implements Log.
func (l *MemLog) Scan(from uint64, fn func(Record) error) error {
	l.mu.RLock()
	// Copy the slice header; records are immutable once appended, so
	// releasing the lock during fn avoids deadlocks when fn appends.
	recs := l.recs
	l.mu.RUnlock()
	for _, r := range recs {
		if r.LSN < from {
			continue
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// LastLSN implements Log.
func (l *MemLog) LastLSN() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lastLSN
}

// Compact implements Log: drop records with LSN ≤ upto.
func (l *MemLog) Compact(upto uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Build the kept set in a fresh slice: Scan iterates a previously
	// captured slice header without the lock, so compacting in place
	// (l.recs[:0]) would shift surviving records under a live reader.
	kept := make([]Record, 0, len(l.recs))
	for _, r := range l.recs {
		if r.LSN > upto {
			kept = append(kept, r)
		}
	}
	l.recs = kept
	return nil
}

// Close implements Log.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// SetAppendHook installs a fault-injection hook (see appendHook).
func (l *MemLog) SetAppendHook(h func(Record) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendHook = h
}
