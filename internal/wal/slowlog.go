package wal

import (
	"sync"
	"time"

	"dvp/internal/vclock"
)

// SlowLog wraps a Device, adding a fixed latency to every Append —
// modelling the force-write to stable storage that commit protocols
// actually pay (an fsync is hundreds of microseconds on an SSD,
// milliseconds on spinning disk). Experiments use it so that "commit
// cost" is wait time rather than CPU, which keeps concurrency shapes
// meaningful on any core count.
//
// The latency is paid by the appending goroutine only; concurrent
// appenders overlap their waits (like independent I/O requests), while
// anything serialized above the log — a held lock, a mutex — is
// serialized across the wait, exactly like real systems. NewSlowDevice
// instead serializes the waits themselves, modelling one log device
// that forces one write at a time.
type SlowLog struct {
	inner Device
	delay time.Duration
	clock vclock.Clock
	// dev, when non-nil, serializes force-writes: one delay at a time,
	// like a single WAL device whose write head the forces queue on.
	// Nil models independent I/O (overlapping waits).
	dev *sync.Mutex
}

// NewSlowLog wraps inner with a per-append delay on the given clock
// (nil means the real clock). A non-positive delay returns inner
// unchanged.
func NewSlowLog(inner Device, delay time.Duration, clock vclock.Clock) Device {
	if delay <= 0 {
		return inner
	}
	if clock == nil {
		clock = vclock.Real{}
	}
	return &SlowLog{inner: inner, delay: delay, clock: clock}
}

// NewSlowDevice is NewSlowLog with force-writes serialized: concurrent
// appends queue and pay the delay one after another, the way a single
// log device actually forces. This is the model under which group
// commit earns its keep — without batching, k concurrent committers
// take k delays; batched, one delay covers the group.
func NewSlowDevice(inner Device, delay time.Duration, clock vclock.Clock) Device {
	l := NewSlowLog(inner, delay, clock)
	if sl, ok := l.(*SlowLog); ok {
		sl.dev = &sync.Mutex{}
	}
	return l
}

// force pays the storage latency, serialized if this is a device.
func (l *SlowLog) force() {
	if l.dev != nil {
		l.dev.Lock()
		defer l.dev.Unlock()
	}
	l.clock.Sleep(l.delay)
}

// Append implements Log.
func (l *SlowLog) Append(kind RecordKind, data []byte) (uint64, error) {
	return appendDurably(l, kind, data)
}

// Enqueue implements Log: wait the storage latency, then append — the
// force is paid here, so the record is stable on return.
func (l *SlowLog) Enqueue(kind RecordKind, data []byte) (uint64, error) {
	l.force()
	return l.inner.Append(kind, data)
}

// WaitDurable implements Log: a record is stable once Enqueue returns.
func (l *SlowLog) WaitDurable(uint64) error { return nil }

// DurableLSN implements Log: every record is stable, so LastLSN.
func (l *SlowLog) DurableLSN() uint64 { return l.LastLSN() }

// AppendBatch implements BatchAppender: the latency models the
// force-write, so a batched flush pays it once for the whole batch —
// that per-flush (not per-record) cost is exactly the win group commit
// exists to buy, and Quick-mode experiments must see it.
func (l *SlowLog) AppendBatch(entries []BatchEntry) (uint64, error) {
	l.force()
	return l.inner.AppendBatch(entries)
}

// Scan implements Log.
func (l *SlowLog) Scan(from uint64, fn func(Record) error) error {
	return l.inner.Scan(from, fn)
}

// LastLSN implements Log.
func (l *SlowLog) LastLSN() uint64 { return l.inner.LastLSN() }

// Compact implements Log (no latency: compaction is background work).
func (l *SlowLog) Compact(upto uint64) error { return l.inner.Compact(upto) }

// Close implements Log.
func (l *SlowLog) Close() error { return l.inner.Close() }
