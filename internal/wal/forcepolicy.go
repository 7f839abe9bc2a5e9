package wal

import "time"

// forcePolicy is the group log's rule for when a force starts and which
// goroutine runs it; §5 step 5 makes a record's stability the commit
// point, so any safe rule may decide both. It reads only what the log
// measures, all EWMAs of gain 1/ewmaGain: it takes events with their
// instants and answers questions, under the log's lock, and it takes
// no lock, starts no goroutine and reads no clock.
//
// When: a force releases a cohort, the distinct waited-for LSNs it
// covered, and closed-loop committers come back with their next record.
// A force that started on the first arrival would leave the others to
// the force after it, so two committers would alternate between forces
// of one record each. The next force holds while (a) fewer distinct LSNs
// at or above the release's mark (the next LSN at the release) have been
// waited for than the cohort had; (b) the measured time from a release
// to the first such wait is below the measured force time; and (c) less
// than one measured force time has passed since the release. A waiter
// queued before the release is not an arrival: it was not released.
//
// Who: handing a force to the flusher costs two wake-ups (committer →
// flusher → committer). A waiter runs a due force itself when the
// measured force is cheaper than the measured hand-off, from a waiter's
// signal to the parked flusher running; until a hand-off is measured,
// the flusher runs every force. A force that starts while a signal is
// pending answers it, and the wake that follows measures nothing.
type forcePolicy struct {
	forceEWMA   time.Duration
	returnEWMA  time.Duration // release to first arrival; 0 until measured
	handoffEWMA time.Duration // 0 until measured

	cohort   int // 0 when there is no release to wait for
	released time.Time
	mark     uint64
	returned int // arrivals since the release

	signalled time.Time // the pending signal; zero if none
}

// ewmaGain is the inverse weight of a new sample, TCP's smoothed-RTT
// gain.
const ewmaGain = 8

func ewma(avg, sample time.Duration) time.Duration {
	if avg == 0 {
		return sample
	}
	return avg + (sample-avg)/ewmaGain
}

// waited takes a newly waited-for LSN; the first arrival times the
// release's round trip.
func (p *forcePolicy) waited(lsn uint64, now time.Time) {
	if p.cohort > 0 && lsn >= p.mark {
		if p.returned == 0 {
			p.returnEWMA = ewma(p.returnEWMA, now.Sub(p.released))
		}
		p.returned++
	}
}

// signal takes a waiter's signal to the parked flusher.
func (p *forcePolicy) signal(now time.Time) {
	if p.signalled.IsZero() {
		p.signalled = now
	}
}

// woke takes the parked flusher's wake: a pending signal is a hand-off.
func (p *forcePolicy) woke(now time.Time) {
	if !p.signalled.IsZero() {
		p.handoffEWMA = ewma(p.handoffEWMA, now.Sub(p.signalled))
		p.signalled = time.Time{}
	}
}

// forceStarts takes a force's start, which answers a pending signal.
func (p *forcePolicy) forceStarts() { p.signalled = time.Time{} }

// landed takes a force that ran from start to end and covered cohort
// waited-for LSNs, released with next the next LSN.
func (p *forcePolicy) landed(cohort int, start, end time.Time, next uint64) {
	p.forceEWMA = ewma(p.forceEWMA, end.Sub(start))
	p.cohort, p.returned = cohort, 0
	p.released, p.mark = end, next
}

// forget drops the release, keeping the measurements: nothing it
// released can arrive any more (Reset, Close, a failed force).
func (p *forcePolicy) forget() { p.cohort, p.returned = 0, 0 }

// holdUntil returns the instant the next force should wait for, or the
// zero Time to force at now.
func (p *forcePolicy) holdUntil(now time.Time) time.Time {
	deadline := p.released.Add(p.forceEWMA)
	if !p.cohortOut() || p.returnEWMA == 0 || p.returnEWMA >= p.forceEWMA || !now.Before(deadline) {
		return time.Time{}
	}
	return deadline
}

// cohortOut reports whether some of the release's cohort has not come
// back: a hold that ends so timed out.
func (p *forcePolicy) cohortOut() bool { return p.returned < p.cohort }

// committerForces reports whether a waiter runs a due force itself.
func (p *forcePolicy) committerForces() bool {
	return p.handoffEWMA != 0 && p.forceEWMA < p.handoffEWMA
}
