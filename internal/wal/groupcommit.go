package wal

import (
	"fmt"
	"sync"
	"time"

	"dvp/internal/metrics"
	"dvp/internal/obs"
)

// GroupCommitOptions configures a GroupLog.
type GroupCommitOptions struct {
	// MaxBatch bounds how many records one flush may carry
	// (default 128).
	MaxBatch int
}

// GroupLog is the group-commit pipeline: a Log whose Enqueue reserves
// the record's LSN and queues it, and nothing more. A force is asked
// for: WaitDurable on an LSN not yet durable records the demand and
// wakes a dedicated flusher goroutine, which drains the whole queue —
// the demanded record, everything before it and everything after it
// that has queued by then — into a single AppendBatch on the inner log:
// one write, one force, many commit points (§5 step 5: stability of the
// record is the commit point; *whose* fsync made it stable is
// immaterial). A record nobody waits for rides the next force somebody
// asks for, or Close's. WaitDurable parks on the durable watermark, and
// Append is the two in sequence, so it keeps the Log contract exactly:
// when it returns nil, the record is stable.
//
// The LSN is reserved under the queue lock, so queue order is LSN
// order and the watermark only ever moves over a dense prefix. A flush
// error therefore fails the log for good — every queued record and
// every later Enqueue — because "a later force succeeded" must imply
// "every earlier enqueued record is stable": a caller may act on a
// reserved LSN before its force (a site credits a Vm that way) and
// relies on any later record's stability covering it. Reset, which a
// crash calls, clears the failure with the queue.
//
// The queue is the log's volatile half: a crash loses the records in
// it (Reset), which is safe because nobody was told they were stable.
type GroupLog struct {
	inner Device
	opts  GroupCommitOptions

	mu       sync.Mutex
	work     *sync.Cond   // the flusher parks here for a demand
	stable   *sync.Cond   // WaitDurable parks here for the watermark
	queue    []BatchEntry // entry i holds LSN next-len(queue)+i
	next     uint64       // the LSN the next Enqueue gets
	inFlight int
	durable  uint64
	demand   uint64 // the highest LSN any WaitDurable has asked for
	failed   error  // first flush error; sticky
	closed   bool
	done     chan struct{}

	hook func(batch int) // test/chaos observation of each flush

	// entryScratch is the flusher's reusable batch-assembly buffer;
	// only the flusher goroutine touches it.
	entryScratch []BatchEntry

	// Flight recording (see SetFlight); nil when not recording.
	flight     *obs.Flight
	flightSite string

	// Instrumentation (see Instrument); nil when not instrumented.
	flushLat  *metrics.Histogram
	batchHist *metrics.Histogram
	flushes   *metrics.Counter
	records   *metrics.Counter
}

// NewGroupLog wraps inner with a group-commit flusher. Close stops the
// flusher and closes inner. Nothing else may append to inner while the
// GroupLog is open: it hands out inner's LSNs ahead of the write.
func NewGroupLog(inner Device, opts GroupCommitOptions) *GroupLog {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 128
	}
	g := &GroupLog{
		inner:   inner,
		opts:    opts,
		durable: inner.LastLSN(),
		next:    inner.LastLSN() + 1,
		done:    make(chan struct{}),
	}
	g.work = sync.NewCond(&g.mu)
	g.stable = sync.NewCond(&g.mu)
	go g.flusher()
	return g
}

// Append implements Log. data stays borrowed, not copied: the caller
// is parked in WaitDurable until the flusher has handed the record to
// the inner log (or the log has failed and dropped its queue), so
// committers encode into pooled scratch and return it right after.
func (g *GroupLog) Append(kind RecordKind, data []byte) (uint64, error) {
	return appendDurably(g, kind, data)
}

// Enqueue implements Log: reserve the next LSN and queue the record
// until some waiter asks for a force that covers it. The queue holds
// data itself, not a copy.
func (g *GroupLog) Enqueue(kind RecordKind, data []byte) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, ErrClosed
	}
	if g.failed != nil {
		return 0, g.failed
	}
	lsn := g.next
	g.next++
	g.queue = append(g.queue, BatchEntry{Kind: kind, Data: data})
	return lsn, nil
}

// WaitDurable implements Log: ask for a force covering lsn if the
// watermark is short of it, then park until the watermark covers lsn,
// or the log fails or closes short of it.
func (g *GroupLog) WaitDurable(lsn uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.durable < lsn && g.demand < lsn {
		g.demand = lsn
		g.work.Signal()
	}
	for g.durable < lsn {
		if g.failed != nil {
			return g.failed
		}
		if g.closed && len(g.queue)+g.inFlight == 0 {
			return ErrClosed
		}
		g.stable.Wait()
	}
	return nil
}

// flusher is the dedicated group-commit goroutine: wait until someone
// waits on a queued LSN (or the log closes), then force the whole
// queue with one inner AppendBatch and move the watermark over it.
// Records queued by the time of the demand, and arrivals during an
// in-progress flush, ride the same or the next force.
func (g *GroupLog) flusher() {
	defer close(g.done)
	for {
		g.mu.Lock()
		for !g.closed && (len(g.queue) == 0 || g.demand <= g.durable) {
			g.work.Wait()
		}
		if len(g.queue) == 0 {
			// Closed and drained (a failed log has no queue either).
			g.stable.Broadcast()
			g.mu.Unlock()
			return
		}
		n := len(g.queue)
		if n > g.opts.MaxBatch {
			n = g.opts.MaxBatch
		}
		// The group moves into the flusher's own scratch, reused across
		// flushes; both it and the queue's vacated tail are cleared once
		// done with, so neither pins an appender's pooled data buffer.
		entries := append(g.entryScratch[:0], g.queue[:n]...)
		rest := copy(g.queue, g.queue[n:])
		clear(g.queue[rest:])
		g.queue = g.queue[:rest]
		want := g.next - uint64(rest) - uint64(n)
		g.inFlight = n
		hook := g.hook
		flushLat, batchHist, flushes, records := g.flushLat, g.batchHist, g.flushes, g.records
		flight, flightSite := g.flight, g.flightSite
		g.mu.Unlock()

		if hook != nil {
			hook(n)
		}
		var start time.Time
		if flushLat != nil {
			start = time.Now()
		}
		first, err := g.inner.AppendBatch(entries)
		if err == nil && first != want {
			err = fmt.Errorf("wal: group log reserved LSN %d but the inner log wrote %d: something else appends to it", want, first)
		}
		if flushLat != nil {
			flushLat.Record(time.Since(start))
			// The batch-size histogram reuses the duration histogram's
			// log-spaced buckets by encoding size n as n microseconds.
			batchHist.Record(time.Duration(n) * time.Microsecond)
			flushes.Inc()
			records.Add(uint64(n))
		}
		clear(entries)
		g.entryScratch = entries[:0]

		// A flush that succeeds is no event: one per force would push
		// every rare event out of the recorder within a second. Its
		// size is dvp_wal_group_batch's.
		if err != nil {
			flight.Recordf(flightSite, "wal-flush-err", "records=%d err=%v", n, err)
		}

		g.mu.Lock()
		g.inFlight = 0
		if err == nil {
			g.durable = want + uint64(n) - 1
		} else {
			// Everything queued behind the failed group holds an LSN
			// that can no longer become stable in order: drop it.
			g.failed = err
			clear(g.queue)
			g.queue = g.queue[:0]
		}
		g.stable.Broadcast()
		g.mu.Unlock()
	}
}

// DurableLSN implements Log: the highest LSN the flusher has made
// stable, read without asking for a force. At a quiescent point it
// equals LastLSN(); mid-flush it trails it.
func (g *GroupLog) DurableLSN() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

// Reset implements Log: wait out the flush in flight, then drop the
// queue, the failure and every demand. The flusher keeps running.
func (g *GroupLog) Reset() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inFlight > 0 {
		g.stable.Wait()
	}
	dropped := len(g.queue)
	g.queue, g.failed = nil, nil
	g.durable = g.inner.LastLSN()
	g.next, g.demand = g.durable+1, g.durable
	return dropped
}

// Waiters reports how many records are queued or riding an in-progress
// flush — the enqueued/durable boundary the chaos harness audits: a
// record is either durable (LSN ≤ DurableLSN) or still counted here,
// never acknowledged-but-lost.
func (g *GroupLog) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue) + g.inFlight
}

// SetFlushHook installs fn to be called at the start of every flush
// with the batch size. Chaos uses it to land a crash inside the
// group-commit window; fn must not call back into the GroupLog's
// appenders synchronously (crash the site from a fresh goroutine).
func (g *GroupLog) SetFlushHook(fn func(batch int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = fn
}

// SetFlight attaches a flight recorder: every failed flush is recorded
// as a structured event under the given site label.
func (g *GroupLog) SetFlight(f *obs.Flight, site string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flight = f
	g.flightSite = site
}

// Instrument registers the group-commit metrics with reg under the
// given extra k,v label pairs (conventionally site=<id>):
// dvp_wal_flush_seconds (force-write latency per flush) and
// dvp_wal_group_batch (batch size, encoded as n microseconds in the
// duration histogram), plus flush/record counters.
func (g *GroupLog) Instrument(reg *obs.Registry, labels ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushLat = reg.Histogram("dvp_wal_flush_seconds", labels...)
	g.batchHist = reg.Histogram("dvp_wal_group_batch", labels...)
	g.flushes = reg.Counter("dvp_wal_group_flushes_total", labels...)
	g.records = reg.Counter("dvp_wal_group_records_total", labels...)
}

// Scan implements Log over the durable records.
func (g *GroupLog) Scan(from uint64, fn func(Record) error) error {
	return g.inner.Scan(from, fn)
}

// LastLSN implements Log (durable view).
func (g *GroupLog) LastLSN() uint64 { return g.inner.LastLSN() }

// Compact implements Log. Safe concurrently with flushing: the inner
// log serializes Compact against AppendBatch, and compaction only
// drops LSNs ≤ upto, which are already durable.
func (g *GroupLog) Compact(upto uint64) error { return g.inner.Compact(upto) }

// Close drains the queue (flushing any remaining records), stops the
// flusher and closes the inner log.
func (g *GroupLog) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return nil
	}
	g.closed = true
	g.work.Broadcast()
	g.mu.Unlock()
	<-g.done
	return g.inner.Close()
}
