package site

import (
	"sync"
	"testing"
	"time"

	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/wire"
)

// carryTap records, per donor, the AckUpTo of every Request site 1
// sends it and the number of standalone VmAcks.
type carryTap struct {
	mu       sync.Mutex
	requests map[ident.SiteID][]uint64
	vmAcks   map[ident.SiteID]int
}

func (c *carryTap) install(t *testing.T, net *simnet.Net) {
	c.requests = make(map[ident.SiteID][]uint64)
	c.vmAcks = make(map[ident.SiteID]int)
	net.SetTap(func(from, to ident.SiteID, kind wire.Kind, frame []byte) {
		if from != 1 || (kind != wire.KRequest && kind != wire.KVmAck) {
			return
		}
		env, err := wire.Unmarshal(frame)
		if err != nil {
			t.Errorf("tap: bad frame: %v", err)
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if kind == wire.KVmAck {
			c.vmAcks[to]++
		} else {
			c.requests[to] = append(c.requests[to], env.AckUpTo)
		}
	})
}

func (c *carryTap) acks(to ident.SiteID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vmAcks[to]
}

func (c *carryTap) carried(to ident.SiteID) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.requests[to]...)
}

// shortfallCluster is an n-site cluster, each site on a virtual clock of
// its own that only the test moves, where site 1 holds none of item and
// every other site holds 100: each write at site 1 is short by its
// whole amount.
func shortfallCluster(t *testing.T, n int, seed int64, item ident.ItemID) (*testCluster, []*vclock.Virtual) {
	clocks := make([]*vclock.Virtual, n)
	for i := range clocks {
		clocks[i] = vclock.NewVirtual(time.Unix(0, 0))
	}
	tc := newTestCluster(t, n, simnet.Config{Seed: seed}, func(i int, c *Config) { c.Clock = clocks[i] })
	place(t, tc.sites[0], item, 0)
	for _, s := range tc.sites[1:] {
		place(t, s, item, 100)
	}
	return tc, clocks
}

// On a busy link the ack rides the traffic: two back-to-back shortfall
// writes, and the second write's Request carries the first one's
// cumulative ack to the donor, which retires its Vm on it. Site 1 sends
// no VmAck of its own, and no retransmission tick passes.
func TestAckRidesTheNextRequest(t *testing.T) {
	const item = ident.ItemID("short")
	tc, _ := shortfallCluster(t, 2, 71, item)
	var tap carryTap
	tap.install(t, tc.net)
	s1, s2 := tc.sites[0], tc.sites[1]

	if res := s1.Run(reserve(item, 1)); !res.Committed() || res.VmAccepted != 1 {
		t.Fatalf("first write: %v, %d Vm accepted", res.Status, res.VmAccepted)
	}
	first := s2.VM().OutSeq(1)
	if got := s1.VM().AckFor(2); got != first {
		t.Fatalf("AckFor(2) = %d after the first commit, want %d", got, first)
	}
	if res := s1.Run(reserve(item, 1)); !res.Committed() {
		t.Fatalf("second write: %v", res.Status)
	}
	tc.settle()
	if got := tap.carried(2); len(got) != 2 || got[0] != 0 || got[1] != first {
		t.Errorf("Requests to the donor carried acks %v, want [0 %d]: the second carries the first write's", got, first)
	}
	if n := tap.acks(2); n != 0 {
		t.Errorf("site 1 sent %d standalone VmAcks on a busy link, want 0", n)
	}
	if got := s2.VM().CumAck(1); got < first {
		t.Errorf("donor's cumulative ack = %d, want ≥ %d: the piggybacked ack retired the first Vm", got, first)
	}
}

// On a quiet link the ack waits for the tick: after one shortfall write
// asking two donors, no VmAck leaves before site 1's retransmission
// tick; at it, each donor gets one, which retires its Vm. A second tick
// sends none: every cursor has been carried.
func TestQuietLinkAckedAtTheTick(t *testing.T) {
	const item = ident.ItemID("short")
	tc, clocks := shortfallCluster(t, 3, 72, item)
	var tap carryTap
	tap.install(t, tc.net)
	s1 := tc.sites[0]
	// tick fires site 1's retransmission timer, the one timer pending on
	// its clock, and waits until the loop has swept and parked again.
	tick := func() {
		t.Helper()
		c := clocks[0]
		at, _ := c.NextDeadline()
		c.AdvanceTo(at)
		waitUntil(t, 2*time.Second, "retransmit loop swept", func() bool { return c.PendingTimers() == 1 })
	}

	if res := s1.Run(reserve(item, 1)); !res.Committed() {
		t.Fatalf("write: %v", res.Status)
	}
	donors := []*Site{tc.sites[1], tc.sites[2]}
	waitUntil(t, 2*time.Second, "both grants accepted", func() bool {
		for _, d := range donors {
			if d.VM().OutSeq(1) == 0 || !s1.VM().Accepted(d.ID(), 1) {
				return false
			}
		}
		return true
	})
	tc.settle()
	for _, d := range donors {
		if n := tap.acks(d.ID()); n != 0 {
			t.Fatalf("%d VmAcks to site %v before the tick, want 0", n, d.ID())
		}
		if n := d.VM().PendingCount(1); n != 1 {
			t.Fatalf("site %v holds %d Vm outstanding before the tick, want 1", d.ID(), n)
		}
	}

	tick()
	for _, d := range donors {
		waitUntil(t, 2*time.Second, "the donor's Vm retired", func() bool { return d.VM().PendingCount(1) == 0 })
	}
	tick()
	tc.settle()
	for _, d := range donors {
		if n := tap.acks(d.ID()); n != 1 {
			t.Errorf("%d VmAcks to site %v over two ticks, want 1", n, d.ID())
		}
	}
}

// A committed full read acks the donors whose Vm it gathered at once,
// not at the tick: until its sender is acked a Vm is outstanding, and
// its sender declines every full read of the item — here, another
// site's. No clock moves, so no tick fires and no timeout can: each
// donor retires its Vm on the read's one VmAck, and site 2's read of
// the same item is answered, not declined outstanding-vm.
func TestGatheredReadAcksAtOnce(t *testing.T) {
	const item = ident.ItemID("audit")
	regs := make([]*obs.Registry, 3)
	tc := newTestCluster(t, 3, simnet.Config{Seed: 73}, func(i int, c *Config) {
		c.Clock = vclock.NewVirtual(time.Unix(0, 0))
		regs[i] = obs.NewRegistry()
		c.Metrics = regs[i]
	})
	for _, s := range tc.sites {
		place(t, s, item, 10)
	}
	var tap carryTap
	tap.install(t, tc.net)
	s1, s2, s3 := tc.sites[0], tc.sites[1], tc.sites[2]

	if res := s1.Run(readItem(item)); !res.Committed() || res.Reads[item] != 30 {
		t.Fatalf("site 1's read: %v, read %d, want committed 30", res.Status, res.Reads[item])
	}
	for _, d := range []*Site{s2, s3} {
		waitUntil(t, 2*time.Second, "the donor's Vm retired with no tick", func() bool { return d.VM().PendingCount(1) == 0 })
		if n := tap.acks(d.ID()); n != 1 {
			t.Errorf("site 1 sent %d VmAcks to site %v, want 1", n, d.ID())
		}
	}

	done := make(chan *txn.Result, 1)
	go func() { done <- s2.Run(readItem(item)) }()
	var res *txn.Result
	waitUntil(t, 2*time.Second, "site 2's read decided", func() bool {
		select {
		case res = <-done:
			return true
		default:
			return false
		}
	})
	if !res.Committed() || res.Reads[item] != 30 {
		t.Errorf("site 2's read: %v, read %d, want committed 30", res.Status, res.Reads[item])
	}
	for i, reg := range regs {
		site := ident.SiteID(i + 1).String()
		if n := reg.CounterValue("dvp_site_requests_declined_total", "site", site, "peer", "s2", "reason", "outstanding-vm"); n != 0 {
			t.Errorf("site %s declined site 2's read %d times for an outstanding Vm", site, n)
		}
	}
}

// A transaction that waits stops its timeout timer as it returns: on a
// virtual clock, after a shortfall write, site 1's clock holds the
// timers it held before — its retransmission loop's alone.
func TestAwaitStopsItsTimer(t *testing.T) {
	const item = ident.ItemID("short")
	tc, clocks := shortfallCluster(t, 2, 74, item)
	c := clocks[0]
	waitUntil(t, 2*time.Second, "the retransmit loop parked", func() bool { return c.PendingTimers() == 1 })
	before := c.PendingTimers()
	if res := tc.sites[0].Run(reserve(item, 1)); !res.Committed() {
		t.Fatalf("write: %v", res.Status)
	}
	tc.settle()
	if got := c.PendingTimers(); got != before {
		t.Errorf("%d timers pending after the write, want %d: its timeout timer outlived it", got, before)
	}
}
