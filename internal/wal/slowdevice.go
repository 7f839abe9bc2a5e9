package wal

import (
	"sync"
	"time"
)

// slowDevice wraps a Device, adding a fixed latency to every force —
// modelling the force-write to stable storage that commit protocols
// actually pay (an fsync is hundreds of microseconds on an SSD,
// milliseconds on spinning disk). Experiments use it so that "commit
// cost" is wait time rather than CPU, which keeps concurrency shapes
// meaningful on any core count.
//
// Forces serialize: concurrent appends queue and pay the delay one
// after another, the way a single log device forces one write at a
// time. This is the model under which group commit earns its keep —
// unbatched, k concurrent committers take k delays; batched, one delay
// covers the group.
type slowDevice struct {
	inner Device
	delay time.Duration
	head  sync.Mutex // the device's write head: one force at a time
}

// NewSlowDevice wraps inner with a per-force delay on the real clock.
// A non-positive delay returns inner unchanged.
func NewSlowDevice(inner Device, delay time.Duration) Device {
	if delay <= 0 {
		return inner
	}
	return &slowDevice{inner: inner, delay: delay}
}

// force pays the storage latency, one force at a time.
func (l *slowDevice) force() {
	l.head.Lock()
	defer l.head.Unlock()
	time.Sleep(l.delay)
}

// Append implements Log.
func (l *slowDevice) Append(kind RecordKind, data []byte) (uint64, error) {
	return appendDurably(l, kind, data)
}

// Enqueue implements Log: wait the storage latency, then append — the
// force is paid here, so the record is stable on return.
func (l *slowDevice) Enqueue(kind RecordKind, data []byte) (uint64, error) {
	l.force()
	return l.inner.Append(kind, data)
}

// WaitDurable implements Log: a record is stable once Enqueue returns.
func (l *slowDevice) WaitDurable(uint64) error { return nil }

// DurableLSN implements Log: every record is stable, so LastLSN.
func (l *slowDevice) DurableLSN() uint64 { return l.LastLSN() }

// AppendBatch implements BatchAppender: the latency models the
// force-write, so a batched flush pays it once for the whole batch —
// that per-flush (not per-record) cost is exactly the win group commit
// exists to buy, and Quick-mode experiments must see it.
func (l *slowDevice) AppendBatch(entries []BatchEntry) (uint64, error) {
	l.force()
	return l.inner.AppendBatch(entries)
}

// Scan implements Log.
func (l *slowDevice) Scan(from uint64, fn func(Record) error) error {
	return l.inner.Scan(from, fn)
}

// LastLSN implements Log.
func (l *slowDevice) LastLSN() uint64 { return l.inner.LastLSN() }

// Compact implements Log (no latency: compaction is background work).
func (l *slowDevice) Compact(upto uint64) error { return l.inner.Compact(upto) }

// Close implements Log.
func (l *slowDevice) Close() error { return l.inner.Close() }
