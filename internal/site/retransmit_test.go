package site

import (
	"testing"
	"time"

	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/vclock"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// The retransmission schedule as a site runs it, each site on its own
// virtual clock driven one tick at a time. Site 2 logs through a group
// log whose clock moves only when the test ticks it, so it accepts a Vm
// at once but forces and acknowledges it only on its own tick — a slow
// ack, not a lost one. The tap counts
// the Vm envelopes site 1 puts on the wire; past the first send of
// each Vm, every one is a retransmission sweep.
//
//	(a) on a lossless link no Vm is resent before its seed gap, even
//	    with a tick passing while its ack is still on its way;
//	(c) toward a silent peer, sweeps over N ticks stay within
//	    5 + 2·N/RetransmitCap;
//	(d) one advancing ack makes the next sweep fire on the next tick,
//	    not after the backoff cap;
//	(b) a Vm restored from a checkpoint is resent on the first sweep
//	    after a restart.
func TestRetransmitSchedule(t *testing.T) {
	const base = 5 * time.Millisecond
	clocks := []*vclock.Virtual{vclock.NewVirtual(time.Unix(0, 0)), vclock.NewVirtual(time.Unix(0, 0))}
	gl := wal.NewGroupLog(wal.NewMemLog(), wal.GroupCommitOptions{})
	t.Cleanup(func() { gl.Close() })
	tc := newTestCluster(t, 2, simnet.Config{Seed: 41}, func(i int, c *Config) {
		c.Clock = clocks[i]
		c.RetransmitEvery = base
		if i == 1 {
			c.Log = gl
		}
	})
	s1, s2 := tc.sites[0], tc.sites[1]
	item := ident.ItemID("flight/R")
	tc.createItem(item, 100)
	var tap vmTap
	tap.install(tc.net, 1)

	// tick fires site i's retransmission timer and waits until the loop
	// has swept and parked again.
	tick := func(i int) {
		t.Helper()
		c := clocks[i-1]
		waitUntil(t, 2*time.Second, "retransmit loop parked", func() bool { return c.PendingTimers() == 1 })
		at, _ := c.NextDeadline()
		c.AdvanceTo(at)
		waitUntil(t, 2*time.Second, "retransmit loop swept", func() bool { return c.PendingTimers() == 1 })
	}
	send := func() wal.VmOut {
		t.Helper()
		if err := s1.SendValue(item, 2, 1); err != nil {
			t.Fatal(err)
		}
		p := s1.VM().PendingTo(2)
		return p[len(p)-1]
	}
	delivered := func(v wal.VmOut) {
		t.Helper()
		waitUntil(t, 2*time.Second, "Vm accepted at site 2", func() bool { return s2.VM().Accepted(1, v.Seq) })
	}

	// (a) v1 goes out half a tick before site 1's tick and reaches site
	// 2, whose ack waits for site 2's own tick.
	waitUntil(t, 2*time.Second, "retransmit loop parked", func() bool { return clocks[0].PendingTimers() == 1 })
	clocks[0].Advance(base / 2)
	v1 := send()
	delivered(v1)
	tick(1)
	if n := tap.sent.Load(); n != 1 {
		t.Fatalf("(a) %d Vm envelopes with the only Vm half a tick old, want 1: resent before its seed gap", n)
	}
	tick(2)
	waitUntil(t, 2*time.Second, "v1 acknowledged", func() bool { return s1.VM().PendingCount(2) == 0 })
	tick(1)
	if n := tap.sent.Load(); n != 1 {
		t.Fatalf("(a) %d Vm envelopes after the ack, want 1", n)
	}

	// (c) v2 reaches site 2, which goes silent: its ack waits for a
	// tick that does not come. v3 is lost on the way.
	v2 := send()
	delivered(v2)
	tc.net.SetFilter(func(from, _ ident.SiteID, kind wire.Kind) bool {
		return from != 1 || (kind != wire.KVm && kind != wire.KVmBatch)
	})
	send()
	const ticks = 40
	before := tap.sent.Load()
	for range ticks {
		tick(1)
	}
	sweeps := tap.sent.Load() - before
	if bound := int64(5 + 2*ticks/vmsg.RetransmitCap); sweeps == 0 || sweeps > bound {
		t.Fatalf("(c) %d sweeps toward a silent peer over %d ticks, want 1..%d", sweeps, ticks, bound)
	}

	// (d) Sweep once more, so the next one is a whole cap away, then let
	// site 2 acknowledge v2: the sweep on the very next tick resends v3.
	before = tap.sent.Load()
	for i := 0; tap.sent.Load() == before; i++ {
		if i == vmsg.RetransmitCap {
			t.Fatalf("(d) no sweep in %d ticks", i)
		}
		tick(1)
	}
	tick(2)
	waitUntil(t, 2*time.Second, "v2 acknowledged", func() bool { return s1.VM().CumAck(2) == v2.Seq })
	before = tap.sent.Load()
	tick(1)
	if n := tap.sent.Load() - before; n != 1 {
		t.Fatalf("(d) %d sweeps on the tick after an advancing ack, want 1", n)
	}

	// (b) Checkpoint with v3 pending, crash, and restart from the log:
	// the restored v3 has no send instant and goes out on the first
	// sweep. The dead loop's timer is fired first, so that the one
	// pending timer is the new loop's.
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	clocks[0].Advance(base)
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	before = tap.sent.Load()
	tick(1)
	if n := tap.sent.Load() - before; n != 1 {
		t.Fatalf("(b) %d sweeps on the first tick after restart, want 1", n)
	}
}
