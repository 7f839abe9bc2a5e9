package wal

import (
	"testing"
	"time"
)

// A policyStep is one event the policy takes, or one question it is
// asked, at an instant given as an offset from t0.
type policyStep func(t *testing.T, p *forcePolicy)

var t0 = time.Unix(1e9, 0)

// land: a force ran from start to end, covered cohort waited-for LSNs
// and released with next the next LSN.
func land(cohort int, start, end time.Duration, next uint64) policyStep {
	return func(_ *testing.T, p *forcePolicy) { p.landed(cohort, t0.Add(start), t0.Add(end), next) }
}

// wait: lsn is newly waited for at d.
func wait(lsn uint64, d time.Duration) policyStep {
	return func(_ *testing.T, p *forcePolicy) { p.waited(lsn, t0.Add(d)) }
}

// signal: a waiter signals the parked flusher at d.
func signal(d time.Duration) policyStep {
	return func(_ *testing.T, p *forcePolicy) { p.signal(t0.Add(d)) }
}

// woke: the parked flusher wakes at d.
func woke(d time.Duration) policyStep {
	return func(_ *testing.T, p *forcePolicy) { p.woke(t0.Add(d)) }
}

func forceStarts(_ *testing.T, p *forcePolicy) { p.forceStarts() }

func forget(_ *testing.T, p *forcePolicy) { p.forget() }

// holds: asked at d, the policy holds the next force until the instant
// until.
func holds(d, until time.Duration) policyStep {
	return func(t *testing.T, p *forcePolicy) {
		if got := p.holdUntil(t0.Add(d)); !got.Equal(t0.Add(until)) {
			t.Errorf("at %v: hold until %v, want until %v", d, got.Sub(t0), until)
		}
	}
}

// forcesNow: asked at d, the policy starts the next force, and a hold
// that ends there counts as the outcome given ("joined" or "timeout";
// "" where no hold could have begun).
func forcesNow(d time.Duration, outcome string) policyStep {
	return func(t *testing.T, p *forcePolicy) {
		if got := p.holdUntil(t0.Add(d)); !got.IsZero() {
			t.Errorf("at %v: hold until %v, want to force now", d, got.Sub(t0))
		}
		got := "joined"
		if p.cohortOut() {
			got = "timeout"
		}
		if outcome != "" && got != outcome {
			t.Errorf("at %v: a hold ending here counts as %s, want %s", d, got, outcome)
		}
	}
}

// runnerIs: the policy has a waiter run a due force itself, or not.
func runnerIs(committer bool) policyStep {
	return func(t *testing.T, p *forcePolicy) {
		if got := p.committerForces(); got != committer {
			t.Errorf("committerForces = %v, want %v (force %v, hand-off %v)", got, committer, p.forceEWMA, p.handoffEWMA)
		}
	}
}

const (
	us = time.Microsecond
	ms = time.Millisecond
)

// TestForcePolicy drives the force rule through sequences of events at
// synthetic instants and checks its decisions: when the next force
// starts, how a hold ends, and who runs the force. Each row names the
// clause it pins (see forcePolicy).
func TestForcePolicy(t *testing.T) {
	// released pair: a 1 ms force covered two committers' LSNs 1 and 2
	// and landed at 1 ms with LSN 3 next.
	pair := land(2, 0, 1*ms, 3)
	for _, row := range []struct {
		name  string
		steps []policyStep
	}{
		{"lone committer", []policyStep{
			// Its own whole cohort: it never holds, round after round.
			land(1, 0, 1*ms, 2), wait(2, 1*ms+50*us), forcesNow(1*ms+50*us, "joined"),
			land(1, 1*ms+50*us, 2*ms+50*us, 3), wait(3, 2*ms+100*us), forcesNow(2*ms+100*us, "joined"),
		}},
		{"released pair", []policyStep{
			// (a)-(c): the first arrival holds until release + force; the
			// second completes the cohort.
			pair, wait(3, 1*ms+50*us), holds(1*ms+50*us, 2*ms),
			wait(4, 1*ms+60*us), forcesNow(1*ms+60*us, "joined"),
		}},
		{"stray", []policyStep{
			// (c): one of two comes back; once a force time has passed
			// since the release, the force starts.
			pair, wait(3, 1*ms+50*us), holds(1*ms+900*us, 2*ms), forcesNow(2*ms, "timeout"),
			// The force that follows releases a cohort of one.
			land(1, 2*ms, 3*ms, 4), wait(4, 3*ms+50*us), forcesNow(3*ms+50*us, "joined"),
		}},
		{"return slower than force", []policyStep{
			// (b): a committer came back 10 ms after a 1 ms force, so LSN
			// 4, queued during the next force, is not held for the others.
			pair, wait(3, 11*ms), land(2, 11*ms, 12*ms, 5), wait(4, 12*ms+10*us), forcesNow(12*ms+10*us, ""),
		}},
		{"no return measured", []policyStep{
			// (b): a waiter below the mark asks before any committer came
			// back, and there is nothing to compare a force with.
			pair, wait(2, 1*ms+10*us), forcesNow(1*ms+10*us, ""),
		}},
		{"waiter below the mark", []policyStep{
			// (a): LSN 2 was queued before the release, so its waiter was
			// not released and does not complete the cohort.
			pair, wait(3, 1*ms+50*us), wait(2, 1*ms+60*us), holds(1*ms+60*us, 2*ms),
			wait(4, 1*ms+70*us), forcesNow(1*ms+70*us, "joined"),
		}},
		{"first arrival samples", []policyStep{
			// (b): the second arrival, 20 ms late, would push the return
			// time past the force time; only the first times a release.
			pair, wait(3, 1*ms+50*us), wait(4, 21*ms),
			land(2, 21*ms, 22*ms, 5), wait(5, 22*ms+50*us), holds(22*ms+50*us, 23*ms),
		}},
		{"hand-off unmeasured", []policyStep{
			land(1, 0, 2*us, 2), runnerIs(false),
		}},
		{"force cheaper than hand-off", []policyStep{
			signal(0), woke(50 * us), land(1, 100*us, 102*us, 2), runnerIs(true),
		}},
		{"force dearer than hand-off", []policyStep{
			signal(0), woke(50 * us), land(1, 100*us, 10*ms+100*us, 2), runnerIs(false),
		}},
		{"force answers the signal", []policyStep{
			// The wake after a force started measures nothing: the
			// hand-off stays unmeasured.
			land(1, 0, 2*us, 2), signal(10 * us), forceStarts, woke(1 * ms), runnerIs(false),
			// A wake with no signal pending measures nothing either.
			woke(2 * ms), runnerIs(false),
		}},
		{"forget", []policyStep{
			// The release goes, and with it the hold. The measurements
			// stay: the hand-off still beats the force, and the next
			// release holds on the return time measured before.
			signal(0), woke(5 * ms), pair, wait(3, 1*ms+50*us), forget,
			forcesNow(1*ms+60*us, ""), runnerIs(true),
			land(2, 1*ms+70*us, 2*ms+70*us, 5), runnerIs(true), holds(2*ms+80*us, 3*ms+70*us),
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var p forcePolicy
			for _, step := range row.steps {
				step(t, &p)
			}
		})
	}
}
