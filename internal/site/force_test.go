package site

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// vmTap counts the Vm and VmBatch envelopes a site puts on the wire.
type vmTap struct{ sent atomic.Int64 }

func (v *vmTap) install(net *simnet.Net, from ident.SiteID) {
	net.SetTap(func(f, _ ident.SiteID, kind wire.Kind, _ []byte) {
		if f == from && (kind == wire.KVm || kind == wire.KVmBatch) {
			v.sent.Add(1)
		}
	})
}

// No stripe is held across a commit's force: with site 1's first flush
// held open, a second transaction on the same item gets through
// admission, locks, enqueues its own record behind the first and
// applies it — two records in the pipeline — and neither is answered,
// nor reported to the hook, before the force.
func TestHotItemCommitsOverlapTheForce(t *testing.T) {
	tc, gl := groupedCluster(t, 31, nil)
	item := ident.ItemID("hot/0")
	tc.createItem(item, 100) // 50 per site
	placed := gl.LastLSN()
	entered, release := holdFirstFlush(gl)
	defer release()

	s := tc.sites[0]
	run := func() <-chan *txn.Result {
		done := make(chan *txn.Result, 1)
		go func() { done <- s.Run(reserve(item, 1)) }()
		return done
	}
	first := run()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first commit never reached the log")
	}
	second := run()
	waitUntil(t, 2*time.Second, "both commit records in the pipeline", func() bool {
		return gl.Waiters() == 2
	})
	if v := s.DB().Value(item); v != 48 {
		t.Errorf("store = %d with both records enqueued, want 48: each applies at its LSN", v)
	}
	if lockHeld(s, item) {
		t.Error("the item is locked while its commits wait for the force")
	}
	for i, done := range []<-chan *txn.Result{first, second} {
		select {
		case res := <-done:
			t.Fatalf("commit %d answered %v before its record was forced", i+1, res.Status)
		default:
		}
	}
	tc.mu.Lock()
	hooked := len(tc.commits)
	tc.mu.Unlock()
	if hooked != 0 || s.Stats().Committed != 0 {
		t.Fatalf("%d commits reported to the hook, %d counted, before the force", hooked, s.Stats().Committed)
	}

	release()
	for i, done := range []<-chan *txn.Result{first, second} {
		if res := <-done; !res.Committed() {
			t.Fatalf("commit %d: %v", i+1, res.Status)
		}
	}
	if n := s.Stats().Committed; n != 2 {
		t.Errorf("Committed = %d, want 2", n)
	}
	if recs := countRecords(t, gl, placed+1); recs[wal.RecCommit] != 2 {
		t.Errorf("stable log holds %d commit records, want 2", recs[wal.RecCommit])
	}
}

// A Vm whose create record is held in an unforced flush is outstanding
// from the enqueue on — the donor's store shows the deduct and a full
// read of the item must decline — but it is not in the retransmission
// set and nothing puts it on the wire, however many retransmission
// sweeps pass. Once the record is stable, it is sent and the requester
// commits.
func TestHeldCreateIsOutstandingNotSent(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	flight := obs.NewFlight(64)
	tc, gl := groupedCluster(t, 32, func(c *Config) {
		c.Clock = clock
		c.Flight = flight
	})
	item := ident.ItemID("flight/F")
	tc.createItem(item, 20) // 10 per site
	var tap vmTap
	tap.install(tc.net, 1)
	entered, release := holdFirstFlush(gl)
	defer release()

	// Site 2 needs 5 from site 1, whose first record is the grant's.
	done := make(chan *txn.Result, 1)
	go func() {
		done <- tc.sites[1].Run(&txn.Txn{
			Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
			Ask:     txn.AskAll,
			Timeout: 5 * time.Second,
		})
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no flush at site 1: the request never arrived")
	}

	donor := tc.sites[0]
	check := func(when string) {
		t.Helper()
		if v := donor.DB().Value(item); v != 5 {
			t.Fatalf("%s: donor store = %d, want 5 (deduct applied at enqueue)", when, v)
		}
		if !donor.VM().HasOutstanding(item) {
			t.Fatalf("%s: HasOutstanding false with the grant's value out of the store", when)
		}
		if p := donor.VM().PendingTo(2); len(p) != 0 {
			t.Fatalf("%s: retransmission set = %+v with the create record unforced", when, p)
		}
		if n := tap.sent.Load(); n != 0 {
			t.Fatalf("%s: %d Vm envelope(s) sent ahead of the create record", when, n)
		}
		if n := donor.Stats().VmCreated; n != 0 {
			t.Fatalf("%s: VmCreated = %d before the force", when, n)
		}
	}
	check("held")
	// Several retransmission ticks on the donor's own clock: each time
	// the loop is parked on its timer, fire it, and wait until it has
	// swept and parked again.
	for tick := 1; tick <= 4; tick++ {
		waitUntil(t, 2*time.Second, "retransmit loop parked", func() bool { return clock.PendingTimers() == 1 })
		clock.Advance(5 * time.Millisecond)
		waitUntil(t, 2*time.Second, "retransmit loop swept", func() bool { return clock.PendingTimers() == 1 })
		check("after a retransmission tick")
	}
	// A full read asking the donor now is declined: the Vm is in flight.
	late := tstamp.Make(1<<40, 2) // admissible under Conc1: after every stamp so far
	donor.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Request{Txn: late, Item: item, FullRead: true}})
	if ev := flight.Last(1); len(ev) != 1 || ev[0].Kind != "rds-decline" || !strings.Contains(ev[0].Detail, "reason=outstanding-vm") {
		t.Errorf("full-read request with an enqueued Vm outstanding: last event %v, want an outstanding-vm decline", ev)
	}

	release()
	if res := <-done; !res.Committed() || res.VmAccepted != 1 {
		t.Fatalf("reserve: %v, %d Vm accepted", res.Status, res.VmAccepted)
	}
	if tap.sent.Load() == 0 {
		t.Error("no Vm sent after the create record was forced")
	}
	if n := donor.Stats().VmCreated; n != 1 {
		t.Errorf("VmCreated = %d, want 1", n)
	}
}

// A force that fails behind an applied commit or an applied grant stops
// the site, counted by reason, and nothing built on the record gets
// out: the transaction is not answered committed and not reported, and
// the Vm is never sent. So does a failed force that only a checkpoint
// waits on, or that only the retransmission tick asks for on behalf of
// an acceptance: the log is failed until a crash resets it, and a site
// that ran on beside it would answer SiteDown forever while reporting
// itself up. The stopped site restarts from its log.
func TestForceFailureStopsTheSite(t *testing.T) {
	cases := []struct {
		reason string
		// drive makes site 1 enqueue one record, which will fail to force.
		drive func(t *testing.T, tc *testCluster, item ident.ItemID)
	}{
		{"commit-force", func(t *testing.T, tc *testCluster, item ident.ItemID) {
			if res := tc.sites[0].Run(reserve(item, 1)); res.Status != txn.StatusSiteDown {
				t.Errorf("commit over a failed force: %v, want %v", res.Status, txn.StatusSiteDown)
			}
		}},
		{"create-force", func(t *testing.T, tc *testCluster, item ident.ItemID) {
			// Site 2 needs 5 from site 1, whose grant fails to force.
			res := tc.sites[1].Run(&txn.Txn{
				Ops: []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
				Ask: txn.AskAll,
			})
			if res.Committed() {
				t.Error("requester committed on a grant whose record never became stable")
			}
		}},
		{"checkpoint-force", func(t *testing.T, tc *testCluster, item ident.ItemID) {
			if err := tc.sites[0].Checkpoint(); err == nil {
				t.Error("Checkpoint succeeded over a failed force")
			}
		}},
		{"accept-force", func(t *testing.T, tc *testCluster, item ident.ItemID) {
			// A grant arriving at a free item: nobody waits on its
			// record, so the tick asks.
			tc.sites[0].handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 1, Item: item, Amount: 1}})
		}},
	}
	for _, c := range cases {
		t.Run(c.reason, func(t *testing.T) {
			reg := obs.NewRegistry()
			var rds atomic.Int64
			tc, _ := groupedCluster(t, 33, func(cfg *Config) {
				cfg.Metrics = reg
				cfg.OnRds = func(RdsInfo) { rds.Add(1) }
			})
			inner := tc.logs[0]
			item := ident.ItemID("flight/G")
			tc.createItem(item, 20)
			var tap vmTap
			tap.install(tc.net, 1)
			inner.SetAppendHook(func(wal.Record) error { return errors.New("disk full") })

			c.drive(t, tc, item)
			s := tc.sites[0]
			select {
			case <-s.FailStopped():
			case <-time.After(2 * time.Second):
				t.Fatal("site kept running beside a record that failed to force")
			}
			waitUntil(t, 2*time.Second, "site down", func() bool { return !s.Up() })
			tc.settle()

			if got := reg.CounterValue("dvp_site_failstop_total", "site", "s1", "reason", c.reason); got != 1 {
				t.Errorf("dvp_site_failstop_total{reason=%s} = %v, want 1", c.reason, got)
			}
			tc.mu.Lock()
			hooked := len(tc.commits)
			tc.mu.Unlock()
			st := s.Stats()
			if hooked != 0 || st.Committed != 0 || st.VmCreated != 0 || rds.Load() != 0 {
				t.Errorf("reported past a failed force: %d hooked, %d committed, %d Vm created, %d Rds halves",
					hooked, st.Committed, st.VmCreated, rds.Load())
			}
			if n := tap.sent.Load(); n != 0 {
				t.Errorf("%d Vm envelope(s) sent by a site whose create record failed", n)
			}

			// The site restarts like any other, into what its log holds;
			// and a restarted site that fails again stops again.
			inner.SetAppendHook(nil)
			if err := s.Restart(); err != nil {
				t.Fatalf("restart after a fail-stop: %v", err)
			}
			if v := s.DB().Value(item); v != 10 {
				t.Errorf("store after restart = %d, want site 1's own 10", v)
			}
			inner.SetAppendHook(func(wal.Record) error { return errors.New("disk full") })
			if res := s.Run(reserve(item, 1)); res.Status != txn.StatusSiteDown {
				t.Errorf("commit over a failed force after restart: %v, want %v", res.Status, txn.StatusSiteDown)
			}
			waitUntil(t, 2*time.Second, "site down again", func() bool { return !s.Up() })
		})
	}
}

// failingOpen is an endpoint that cannot attach.
type failingOpen struct{ wire.Endpoint }

func (failingOpen) Open() error { return errors.New("address in use") }

// A site whose endpoint fails to open stops itself instead of running
// deaf: counted, FailStopped closed, no restart in place.
func TestEndpointOpenFailureStopsTheSite(t *testing.T) {
	reg := obs.NewRegistry()
	tc := newTestCluster(t, 2, simnet.Config{Seed: 34}, func(i int, c *Config) {
		c.Metrics = reg
		if i == 0 {
			c.Endpoint = failingOpen{c.Endpoint}
		}
	})
	s := tc.sites[0]
	select {
	case <-s.FailStopped():
	case <-time.After(2 * time.Second):
		t.Fatal("site kept running on an endpoint that failed to open")
	}
	waitUntil(t, 2*time.Second, "site down", func() bool { return !s.Up() })
	if got := reg.CounterValue("dvp_site_failstop_total", "site", "s1", "reason", "endpoint-open"); got != 1 {
		t.Errorf("dvp_site_failstop_total{reason=endpoint-open} = %v, want 1", got)
	}
	if !tc.sites[1].Up() {
		t.Error("the peer with a working endpoint went down too")
	}
}

// failingSend is an endpoint that refuses every envelope.
type failingSend struct{ wire.Endpoint }

func (failingSend) Send(*wire.Envelope) error { return errors.New("connection reset") }

// A send the endpoint refuses is loss to the protocol — the requester's
// timeout covers it here — and is counted per peer, not swallowed.
func TestSendErrorsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	tc := newTestCluster(t, 2, simnet.Config{Seed: 39}, func(i int, c *Config) {
		c.Metrics = reg
		if i == 0 {
			c.Endpoint = failingSend{c.Endpoint}
		}
	})
	item := ident.ItemID("flight/L")
	tc.createItem(item, 20)
	res := tc.sites[0].Run(&txn.Txn{
		Ops:     []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
		Ask:     txn.AskAll,
		Timeout: 20 * time.Millisecond,
	})
	if res.Status != txn.StatusTimeout || res.RequestsSent != 1 {
		t.Fatalf("ask over a refusing endpoint: %v after %d requests, want a timeout after 1", res.Status, res.RequestsSent)
	}
	if got := reg.CounterValue("dvp_site_send_errors_total", "site", "s1", "peer", "s2"); got != 1 {
		t.Errorf("dvp_site_send_errors_total{peer=s2} = %d, want 1", got)
	}
	if !tc.sites[0].Up() {
		t.Error("a refused send stopped the site; it is loss, not a failure")
	}
}
