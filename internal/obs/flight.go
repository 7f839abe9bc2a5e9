package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"dvp/internal/vclock"
)

// FlightEvent is one structured entry in the flight recorder: a
// rare protocol-level state transition worth replaying after a failure
// (lock conflicts, declined requests, timeouts, Vm parking, rebalancer
// decisions, failed flushes, checkpoints, site lifecycle, peer links).
// Per-operation events — a force, a grant, an acceptance — are not
// recorded: at a few thousand a second they would push every rare one
// out of the ring within a second, and the trace ring and the metrics
// already count them.
type FlightEvent struct {
	// AtUnixNano is the instant of the event on the recorder's clock
	// (SetClock).
	AtUnixNano int64 `json:"at_unix_nano"`
	// Site is the site that recorded the event.
	Site string `json:"site"`
	// Kind classifies the event ("lock-conflict", "rds-decline",
	// "txn-timeout", "vm-defer", "vm-redeliver", "rebal-transfer",
	// "wal-flush-err", "checkpoint", "recover", "site-up", ...).
	Kind string `json:"kind"`
	// Detail carries event-specific context, pre-rendered.
	Detail string `json:"detail,omitempty"`
}

// String renders the event as one human-readable dump line.
func (e *FlightEvent) String() string {
	ts := time.Unix(0, e.AtUnixNano).UTC().Format("15:04:05.000000")
	if e.Detail == "" {
		return fmt.Sprintf("%s %-4s %s", ts, e.Site, e.Kind)
	}
	return fmt.Sprintf("%s %-4s %-14s %s", ts, e.Site, e.Kind, e.Detail)
}

// Flight is a bounded, lock-free ring of the most recent FlightEvents
// — a flight recorder: cheap enough to leave on, bounded so it can
// run forever, dumped when something goes wrong. Same publication
// discipline as Ring: events are immutable once recorded, readers may
// race and at worst see a newer event in a slot.
//
// A nil *Flight ignores every call, so call sites need no enabled
// checks.
type Flight struct {
	mask  uint64
	next  atomic.Uint64
	slots []atomic.Pointer[FlightEvent]
	clock atomic.Pointer[vclock.Clock]
}

// NewFlight creates a recorder holding the last capacity events
// (rounded up to a power of two, minimum 64), on the real clock.
func NewFlight(capacity int) *Flight {
	n := 64
	for n < capacity {
		n <<= 1
	}
	f := &Flight{mask: uint64(n - 1), slots: make([]atomic.Pointer[FlightEvent], n)}
	f.SetClock(vclock.Real{})
	return f
}

// SetClock makes c the recorder's clock: every event's instant is read
// from it. A site passes its own, the clock its traces and histograms
// read, so that one dump keeps one timeline; sites that share a
// recorder share a clock. Safe beside concurrent Records.
func (f *Flight) SetClock(c vclock.Clock) {
	if f == nil {
		return
	}
	f.clock.Store(&c)
}

// Record appends one event.
func (f *Flight) Record(site, kind, detail string) {
	if f == nil {
		return
	}
	e := &FlightEvent{
		AtUnixNano: (*f.clock.Load()).Now().UnixNano(),
		Site:       site,
		Kind:       kind,
		Detail:     detail,
	}
	pos := f.next.Add(1) - 1
	f.slots[pos&f.mask].Store(e)
}

// Recordf appends one event with a formatted detail. The formatting
// cost is skipped entirely when the recorder is nil.
func (f *Flight) Recordf(site, kind, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(site, kind, fmt.Sprintf(format, args...))
}

// Recorded returns the total number of events ever recorded.
func (f *Flight) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// Last returns up to n of the most recent events, oldest first.
func (f *Flight) Last(n int) []*FlightEvent {
	if f == nil || n <= 0 {
		return nil
	}
	end := f.next.Load()
	span := uint64(n)
	if span > end {
		span = end
	}
	if span > uint64(len(f.slots)) {
		span = uint64(len(f.slots))
	}
	out := make([]*FlightEvent, 0, span)
	for pos := end - span; pos < end; pos++ {
		if e := f.slots[pos&f.mask].Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// WriteText dumps up to n of the most recent events as readable lines,
// oldest first.
func (f *Flight) WriteText(w io.Writer, n int) error {
	for _, e := range f.Last(n) {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// DumpJSON writes up to n of the most recent events as JSON lines,
// oldest first.
func (f *Flight) DumpJSON(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, e := range f.Last(n) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
