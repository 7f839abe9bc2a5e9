package wal

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dvp/internal/metrics"
	"dvp/internal/obs"
)

// GroupCommitOptions configures a GroupLog. It has no fields left;
// callers pass GroupCommitOptions{}.
type GroupCommitOptions struct{}

// maxBatch bounds how many records one force may carry.
const maxBatch = 128

// GroupLog is the group-commit pipeline: a Log whose Enqueue reserves
// the record's LSN and queues it, and nothing more. A force is asked
// for: WaitDurable on an LSN not yet durable adds it to the set of
// waited-for LSNs, and one force drains the whole queue — the
// waited-for record, everything before it and everything after it that
// has queued by then — into a single AppendBatch on the inner log: one
// write, one force, many commit points (§5 step 5: stability of the
// record is the commit point; *whose* fsync made it stable is
// immaterial). A record nobody waits for rides the next force somebody
// asks for, or Close's. WaitDurable parks on the durable watermark, and
// Append is the two in sequence, so it keeps the Log contract exactly:
// when it returns nil, the record is stable.
//
// A force has two runners, one at a time and in LSN order: the
// dedicated flusher goroutine, and WaitDurable in the waiter's own
// goroutine. When a force starts, and which of the two runs it, is the
// forcePolicy's decision; the log tells it what happens, with the
// instants it reads, and asks it. The flusher may hold a due force on
// one reusable timer until the policy's instant. A hold that ends with
// the cohort back counts as joined, any other as timed out; Reset and
// Close cut it short and count it as neither.
//
// The LSN is reserved under the queue lock, so queue order is LSN
// order and the watermark only ever moves over a dense prefix. A force
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

	mu       sync.Mutex
	work     *sync.Cond   // the flusher parks here for a wait, a hold's end or a force's
	stable   *sync.Cond   // WaitDurable parks here for the watermark
	queue    []BatchEntry // entry i holds LSN next-len(queue)+i
	next     uint64       // the LSN the next Enqueue gets
	inFlight int          // records of the force under way, whoever runs it
	durable  uint64
	wants    []uint64 // distinct LSNs above durable that WaitDurable waits on, ascending
	failed   error    // first force error; sticky
	closed   bool
	gen      *generation // the waits since the last Reset
	done     chan struct{}

	policy    forcePolicy
	parked    bool        // the flusher waits on work
	holdStart time.Time   // zero unless the flusher is holding
	holdTimer *time.Timer // wakes the flusher at a hold's end; stopped unless it holds

	hook func(batch int) // test/chaos observation of each force

	// entryScratch is the reusable batch-assembly buffer of the force
	// under way; forces are serial, so one goroutine at a time uses it.
	entryScratch []BatchEntry

	// Flight recording (see SetFlight); nil when not recording.
	flight     *obs.Flight
	flightSite string

	// Instrumentation (see Instrument); nil when not instrumented.
	flushLat         *metrics.Histogram
	batchHist        *metrics.Histogram
	flushesFlusher   *metrics.Counter
	flushesCommitter *metrics.Counter
	records          *metrics.Counter
	holdLat          *metrics.Histogram
	holdsJoined      *metrics.Counter
	holdsTimeout     *metrics.Counter
}

// generation is the stretch of a log between two Resets. A wait belongs
// to the generation it started in: once a Reset ends that generation,
// the wait is answered by the watermark it ended at, never by a later
// record that reuses a dropped record's LSN.
type generation struct {
	over    bool
	durable uint64 // the watermark the Reset left, once over
}

// NewGroupLog wraps inner with a group-commit flusher. Close stops the
// flusher and closes inner. Nothing else may append to inner while the
// GroupLog is open: it hands out inner's LSNs ahead of the write.
func NewGroupLog(inner Device, _ GroupCommitOptions) *GroupLog {
	g := &GroupLog{
		inner:   inner,
		durable: inner.LastLSN(),
		next:    inner.LastLSN() + 1,
		done:    make(chan struct{}),
		gen:     new(generation),
	}
	g.work = sync.NewCond(&g.mu)
	g.stable = sync.NewCond(&g.mu)
	g.holdTimer = time.AfterFunc(time.Hour, g.wake)
	g.holdTimer.Stop()
	go g.flusher()
	return g
}

// Append implements Log. data stays borrowed, not copied: the caller
// is parked in WaitDurable (or runs the force itself) until the record
// is in the inner log (or the log has failed and dropped its queue), so
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
// watermark is short of it — run it here when the policy says the
// waiter should, or else wake the flusher — then park until the
// watermark covers lsn, or the log fails or closes short of it, or a
// Reset drops the record (ErrReset).
func (g *GroupLog) WaitDurable(lsn uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.durable >= lsn {
		return nil
	}
	now := time.Now()
	ask := g.want(lsn, now)
	gen := g.gen
	for g.durable < lsn {
		if g.failed != nil {
			return g.failed
		}
		if g.closed && len(g.queue)+g.inFlight == 0 {
			return ErrClosed
		}
		if !g.closed && g.inFlight == 0 && len(g.queue) > 0 && g.holdStart.IsZero() && g.policy.committerForces() {
			if now.IsZero() { // woken: the entry's instant is stale
				now = time.Now()
			}
			if g.policy.holdUntil(now).IsZero() {
				now = g.force(false)
				continue
			}
		}
		if ask {
			if g.parked {
				g.policy.signal(now)
			}
			g.work.Signal()
			ask = false
		}
		g.stable.Wait()
		if gen.over && lsn > gen.durable {
			return ErrReset
		}
		now = time.Time{}
	}
	return nil
}

// want adds lsn, above the watermark, to the waited-for set at now and
// reports whether it was new there; a new one is the policy's event.
func (g *GroupLog) want(lsn uint64, now time.Time) bool {
	i, found := slices.BinarySearch(g.wants, lsn)
	if found {
		return false
	}
	g.wants = slices.Insert(g.wants, i, lsn)
	g.policy.waited(lsn, now)
	return true
}

// awaitForce parks the flusher, under g.mu, until it is due to force:
// no force is in flight and either the log is closing, or a queued
// record is waited for and the policy does not hold the force. A hold
// parks until the policy's instant, on the hold timer.
func (g *GroupLog) awaitForce() {
	now := time.Now()
	for {
		switch {
		case g.inFlight > 0: // a waiter's force: forces stay serial
		case g.closed:
			return
		case len(g.queue) > 0 && len(g.wants) > 0:
			until := g.policy.holdUntil(now)
			if until.IsZero() {
				g.endHold(now)
				return
			}
			if g.holdStart.IsZero() {
				g.holdStart = now
			}
			g.holdTimer.Reset(until.Sub(now))
		}
		now = g.park()
	}
}

// park waits on work and tells the policy when the flusher woke.
func (g *GroupLog) park() time.Time {
	g.parked = true
	g.work.Wait()
	g.parked = false
	now := time.Now()
	g.policy.woke(now)
	return now
}

// wake is the hold timer's callback.
func (g *GroupLog) wake() {
	g.mu.Lock()
	g.work.Signal()
	g.mu.Unlock()
}

// endHold ends the flusher's hold, if it holds, at now: joined if the
// cohort came back, timed out if not.
func (g *GroupLog) endHold(now time.Time) {
	if g.holdStart.IsZero() {
		return
	}
	if g.holdLat != nil {
		g.holdLat.Record(now.Sub(g.holdStart))
		if g.policy.cohortOut() {
			g.holdsTimeout.Inc()
		} else {
			g.holdsJoined.Inc()
		}
	}
	g.holdStart = time.Time{}
	g.holdTimer.Stop()
}

// forget drops the waited-for set and the policy's last release,
// cutting short any hold uncounted: nothing the log held for can arrive
// any more.
func (g *GroupLog) forget() {
	g.wants = g.wants[:0]
	g.policy.forget()
	if !g.holdStart.IsZero() {
		g.holdStart = time.Time{}
		g.holdTimer.Stop()
		g.work.Signal()
	}
}

// flusher is the dedicated group-commit goroutine: wait until a force
// is due (see awaitForce), then run it. It returns once the log is
// closed and drained.
func (g *GroupLog) flusher() {
	defer close(g.done)
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		g.awaitForce()
		if len(g.queue) == 0 {
			// Closed and drained (a failed log has no queue either).
			g.stable.Broadcast()
			return
		}
		g.force(true)
	}
}

// force writes up to maxBatch queued records with one inner
// AppendBatch and moves the watermark over them, or fails the log. It
// runs under g.mu, with records queued and no force in flight, and
// releases g.mu around the write. byFlusher says which goroutine runs
// it. Records queued meanwhile ride the next force. It returns the
// instant the write ended.
func (g *GroupLog) force(byFlusher bool) time.Time {
	g.policy.forceStarts()
	n := min(len(g.queue), maxBatch)
	// The group moves into the shared scratch, reused across forces;
	// both it and the queue's vacated tail are cleared once done with,
	// so neither pins an appender's pooled data buffer.
	entries := append(g.entryScratch[:0], g.queue[:n]...)
	rest := copy(g.queue, g.queue[n:])
	clear(g.queue[rest:])
	g.queue = g.queue[:rest]
	want := g.next - uint64(rest) - uint64(n)
	g.inFlight = n
	hook := g.hook
	flushes := g.flushesCommitter
	if byFlusher {
		flushes = g.flushesFlusher
	}
	flushLat, batchHist, records := g.flushLat, g.batchHist, g.records
	flight, flightSite := g.flight, g.flightSite
	g.mu.Unlock()

	if hook != nil {
		hook(n)
	}
	start := time.Now()
	first, err := g.inner.AppendBatch(entries)
	end := time.Now()
	if err == nil && first != want {
		err = fmt.Errorf("wal: group log reserved LSN %d but the inner log wrote %d: something else appends to it", want, first)
	}
	if flushLat != nil {
		flushLat.Record(end.Sub(start))
		// The batch-size histogram reuses the duration histogram's
		// log-spaced buckets by encoding size n as n microseconds.
		batchHist.Record(time.Duration(n) * time.Microsecond)
		flushes.Inc()
		records.Add(uint64(n))
	}
	clear(entries)

	// A force that succeeds is no event: one per force would push
	// every rare event out of the recorder within a second. Its size
	// is dvp_wal_group_batch's.
	if err != nil {
		flight.Recordf(flightSite, "wal-flush-err", "records=%d err=%v", n, err)
	}

	g.mu.Lock()
	g.entryScratch = entries[:0]
	g.inFlight = 0
	if err == nil {
		g.durable = want + uint64(n) - 1
		covered := 0
		for covered < len(g.wants) && g.wants[covered] <= g.durable {
			covered++
		}
		g.wants = append(g.wants[:0], g.wants[covered:]...)
		g.policy.landed(covered, start, end, g.next)
	} else {
		// Everything queued behind the failed group holds an LSN
		// that can no longer become stable in order: drop it.
		g.failed = err
		clear(g.queue)
		g.queue = g.queue[:0]
		g.forget()
	}
	// A flusher parked behind a waiter's force is due to force what is
	// still waited for, or to drain a closing log.
	if !byFlusher && (len(g.wants) > 0 || g.closed) {
		g.work.Signal()
	}
	g.stable.Broadcast()
	return end
}

// DurableLSN implements Log: the highest LSN a force has made
// stable, read without asking for a force. At a quiescent point it
// equals LastLSN(); mid-flush it trails it.
func (g *GroupLog) DurableLSN() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

// Reset implements Log: wait out the force in flight, then drop the
// queue, the failure, every wait and the last release, cutting short
// any hold, and end the generation: a wait on a record it dropped
// returns ErrReset. The flusher keeps running.
func (g *GroupLog) Reset() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inFlight > 0 {
		g.stable.Wait()
	}
	dropped := len(g.queue)
	g.queue, g.failed = nil, nil
	g.durable = g.inner.LastLSN()
	g.next = g.durable + 1
	g.forget()
	g.gen.over, g.gen.durable = true, g.durable
	g.gen = new(generation)
	g.stable.Broadcast()
	return dropped
}

// Waiters reports how many records are queued or riding an in-progress
// force — the enqueued/durable boundary the chaos harness audits: a
// record is either durable (LSN ≤ DurableLSN) or still counted here,
// never acknowledged-but-lost.
func (g *GroupLog) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue) + g.inFlight
}

// SetFlushHook installs fn to be called at the start of every force
// with the batch size, on the goroutine that runs the force: the
// flusher, or a committer inside WaitDurable. Chaos uses it to land a
// crash inside the group-commit window; fn must not call back into the
// GroupLog or wait for its committers synchronously (crash the site
// from a fresh goroutine).
func (g *GroupLog) SetFlushHook(fn func(batch int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = fn
}

// SetFlight attaches a flight recorder: every failed force is recorded
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
// duration histogram), the record counter, the flush counter
// dvp_wal_group_flushes_total{by="flusher"|"committer"} split by the
// goroutine that ran the force, and the holds:
// dvp_wal_group_holds_total{outcome="joined"|"timeout"} and
// dvp_wal_group_hold_seconds (time held per hold).
func (g *GroupLog) Instrument(reg *obs.Registry, labels ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushLat = reg.Histogram("dvp_wal_flush_seconds", labels...)
	g.batchHist = reg.Histogram("dvp_wal_group_batch", labels...)
	g.flushesFlusher = reg.Counter("dvp_wal_group_flushes_total", slices.Concat(labels, []string{"by", "flusher"})...)
	g.flushesCommitter = reg.Counter("dvp_wal_group_flushes_total", slices.Concat(labels, []string{"by", "committer"})...)
	g.records = reg.Counter("dvp_wal_group_records_total", labels...)
	g.holdLat = reg.Histogram("dvp_wal_group_hold_seconds", labels...)
	g.holdsJoined = reg.Counter("dvp_wal_group_holds_total", slices.Concat(labels, []string{"outcome", "joined"})...)
	g.holdsTimeout = reg.Counter("dvp_wal_group_holds_total", slices.Concat(labels, []string{"outcome", "timeout"})...)
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

// Close cuts short any hold, drains the queue (flushing any remaining
// records), stops the flusher and closes the inner log.
func (g *GroupLog) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return nil
	}
	g.closed = true
	g.forget()
	g.work.Broadcast()
	g.mu.Unlock()
	<-g.done
	return g.inner.Close()
}
