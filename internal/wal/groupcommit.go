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
// Who runs a force is a question of cost. Handing it to the dedicated
// flusher goroutine costs two wake-ups (committer → flusher →
// committer), which is nothing beside an fsync and more than a
// page-cache write. So the log measures both: the force time, and the
// hand-off time from a waiter's signal to the flusher running again.
// WaitDurable runs the force itself when no force is in flight, the
// hold below would not hold now, and the measured force is cheaper than
// the measured hand-off; otherwise it signals the flusher. Both callers
// run the same force, one at a time and in LSN order. Until a hand-off
// has been measured, every force goes to the flusher.
//
// The flusher may hold a force for the committers the last one
// released. A force releases a cohort: the distinct waited-for LSNs it
// covered. Closed-loop committers come back with their next record,
// and a force that starts on the first arrival leaves the others to
// the force after it, so two committers alternate between forces of
// one record each. The next force therefore holds while (a) fewer
// distinct LSNs at or above the release's mark (the next LSN at the
// release) have been waited for than the cohort had, (b) the measured
// time from a release to the first such wait is below the measured
// force time, and (c) less than one measured force time has passed
// since the release. All three measurements are EWMAs of gain
// 1/ewmaGain. An arrival that completes the cohort ends the hold
// ("joined"), and a timer at the end of (c) does too ("timeout"); Reset
// and Close cut it short. A committer already queued at the release is
// not an arrival: it was not released. The rule reads only what the log
// measures, so a log whose forces are cheaper than its committers'
// round trips (no fsync, or a committer that waits on a peer) almost
// never holds, and a lone committer never does.
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
	done     chan struct{}

	// Who forces (see GroupLog). The flusher samples a hand-off when it
	// wakes to a signal it was parked for; a force that starts first
	// takes the signal's place, and the wake measures nothing.
	forceEWMA   time.Duration // measured force time
	handoffEWMA time.Duration // measured signal-to-flusher-running time; 0 until measured
	parked      bool          // the flusher waits on work
	signalled   time.Time     // when a waiter signalled the parked flusher; zero if none did

	// The hold (see GroupLog). A force writes the release; WaitDurable
	// counts the arrivals and times the first.
	cohort     int           // distinct waited-for LSNs the last force covered
	released   time.Time     // when that force landed
	mark       uint64        // next at the release: an arrival waits at or above it
	returned   int           // distinct LSNs at or above mark waited for since
	returnEWMA time.Duration // measured release-to-first-arrival time; 0 until measured
	holdStart  time.Time     // zero unless the flusher is holding
	holdTimer  *time.Timer   // ends a hold at (c); created by the first hold

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

// ewmaGain is the inverse weight of a new sample in the log's moving
// averages, TCP's smoothed-RTT gain.
const ewmaGain = 8

func ewma(avg, sample time.Duration) time.Duration {
	if avg == 0 {
		return sample
	}
	return avg + (sample-avg)/ewmaGain
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
	}
	g.work = sync.NewCond(&g.mu)
	g.stable = sync.NewCond(&g.mu)
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
// watermark is short of it — run it here when that is the cheaper way
// (see GroupLog), or else wake the flusher — then park until the
// watermark covers lsn, or the log fails or closes short of it.
func (g *GroupLog) WaitDurable(lsn uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.durable >= lsn {
		return nil
	}
	ask := g.want(lsn)
	for g.durable < lsn {
		if g.failed != nil {
			return g.failed
		}
		if g.closed && len(g.queue)+g.inFlight == 0 {
			return ErrClosed
		}
		if g.forceHere() {
			g.force(false)
			continue
		}
		if ask {
			if g.parked && g.signalled.IsZero() {
				g.signalled = time.Now()
			}
			g.work.Signal()
			ask = false
		}
		g.stable.Wait()
	}
	return nil
}

// want adds lsn, above the watermark, to the waited-for set and reports
// whether it was new there. A new LSN at or above the last release's
// mark is an arrival; the first one times the release's round trip.
func (g *GroupLog) want(lsn uint64) bool {
	i := len(g.wants)
	for i > 0 && g.wants[i-1] >= lsn {
		i--
	}
	if i < len(g.wants) && g.wants[i] == lsn {
		return false
	}
	g.wants = slices.Insert(g.wants, i, lsn)
	if g.cohort > 0 && lsn >= g.mark {
		if g.returned == 0 {
			g.returnEWMA = ewma(g.returnEWMA, time.Since(g.released))
		}
		g.returned++
	}
	return true
}

// forceHere reports whether a waiter should run the force itself: the
// log is open, no force is in flight, the flusher neither holds nor
// would start a hold now, and the measured force is cheaper than the
// measured hand-off.
func (g *GroupLog) forceHere() bool {
	if g.closed || g.inFlight > 0 || len(g.queue) == 0 || !g.holdStart.IsZero() ||
		g.handoffEWMA == 0 || g.forceEWMA >= g.handoffEWMA {
		return false
	}
	return !g.holdApplies() || !time.Now().Before(g.released.Add(g.forceEWMA))
}

// holdApplies reports conditions (a) and (b) of the hold (see
// GroupLog): the last cohort has not all come back, and it measurably
// comes back faster than a force takes.
func (g *GroupLog) holdApplies() bool {
	return g.returned < g.cohort && g.returnEWMA != 0 && g.returnEWMA < g.forceEWMA
}

// awaitForce parks the flusher, under g.mu, until it is due to force:
// no force is in flight and either the log is closing or a queued
// record is waited for and no hold applies (see GroupLog).
func (g *GroupLog) awaitForce() {
	for {
		if g.inFlight > 0 {
			g.park() // a waiter's force: forces stay serial
			continue
		}
		if g.closed {
			return
		}
		if len(g.queue) == 0 || len(g.wants) == 0 {
			g.park()
			continue
		}
		holding := !g.holdStart.IsZero()
		if !holding && !g.holdApplies() {
			return
		}
		if holding && g.returned >= g.cohort {
			g.endHold(g.holdsJoined)
			return
		}
		now := time.Now()
		deadline := g.released.Add(g.forceEWMA)
		if !now.Before(deadline) {
			if holding {
				g.endHold(g.holdsTimeout)
			}
			return
		}
		if !holding {
			g.holdStart = now
		}
		if g.holdTimer == nil {
			g.holdTimer = time.AfterFunc(deadline.Sub(now), g.wake)
		} else {
			g.holdTimer.Reset(deadline.Sub(now))
		}
		g.park()
	}
}

// park waits on work and, if a waiter's signal woke the flusher,
// samples the hand-off.
func (g *GroupLog) park() {
	g.parked = true
	g.work.Wait()
	g.parked = false
	if !g.signalled.IsZero() {
		g.handoffEWMA = ewma(g.handoffEWMA, time.Since(g.signalled))
		g.signalled = time.Time{}
	}
}

// wake is the hold timer's callback.
func (g *GroupLog) wake() {
	g.mu.Lock()
	g.work.Signal()
	g.mu.Unlock()
}

// endHold ends the flusher's hold with the given outcome. A nil
// outcome — a hold Reset or Close cut short, or a log not instrumented
// — is counted nowhere.
func (g *GroupLog) endHold(outcome *metrics.Counter) {
	if outcome != nil {
		g.holdLat.Record(time.Since(g.holdStart))
		outcome.Inc()
	}
	g.holdStart = time.Time{}
}

// forget drops the waited-for set and the last release, cutting short
// any hold: nothing the log held for can arrive any more.
func (g *GroupLog) forget() {
	g.wants = g.wants[:0]
	g.cohort, g.returned = 0, 0
	if !g.holdStart.IsZero() {
		g.endHold(nil)
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
			if g.holdTimer != nil {
				g.holdTimer.Stop()
			}
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
// it. Records queued meanwhile ride the next force.
func (g *GroupLog) force(byFlusher bool) {
	g.signalled = time.Time{}
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
		g.cohort, g.returned = covered, 0
		g.released, g.mark = end, g.next
		g.forceEWMA = ewma(g.forceEWMA, end.Sub(start))
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
// any hold. The flusher keeps running.
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
