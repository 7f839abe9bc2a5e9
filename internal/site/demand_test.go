package site

import (
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/wire"
)

// --- demand cell and advert tracker unit tests -------------------------------

func trackerCfg() RebalanceConfig {
	return RebalanceConfig{
		Interval:    10 * time.Millisecond,
		HalfLife:    40 * time.Millisecond,
		AdvertStale: 40 * time.Millisecond,
	}.withDefaults()
}

func TestDemandEWMADecays(t *testing.T) {
	halfLife := trackerCfg().HalfLife // 40ms
	var x, y itemState
	t0 := time.Unix(1000, 0)
	x.demand.add(100, t0, halfLife)
	if got := x.demand.level(t0, halfLife); got != 100 {
		t.Errorf("demand at t0 = %v, want 100", got)
	}
	// One half-life later the accumulator has halved; two, quartered.
	if got := x.demand.level(t0.Add(40*time.Millisecond), halfLife); got < 49 || got > 51 {
		t.Errorf("demand after one half-life = %v, want ≈ 50", got)
	}
	if got := x.demand.level(t0.Add(80*time.Millisecond), halfLife); got < 24 || got > 26 {
		t.Errorf("demand after two half-lives = %v, want ≈ 25", got)
	}
	// Fresh samples pile on top of the decayed value.
	x.demand.add(10, t0.Add(80*time.Millisecond), halfLife)
	if got := x.demand.level(t0.Add(80*time.Millisecond), halfLife); got < 34 || got > 36 {
		t.Errorf("demand after decay+sample = %v, want ≈ 35", got)
	}
	// An item nobody consumed has zero demand; non-positive amounts
	// are not demand.
	y.demand.add(0, t0, halfLife)
	y.demand.add(-3, t0, halfLife)
	if got := y.demand.level(t0, halfLife); got != 0 {
		t.Errorf("demand for untouched item = %v", got)
	}
}

func TestDemandAdvertFreshnessIsReachability(t *testing.T) {
	d := newDemandTracker(trackerCfg()) // AdvertStale = 40ms
	t0 := time.Unix(1000, 0)
	d.observeAdvert(2, []wire.DemandEntry{{Item: "x", Demand: 3000, Have: 7}}, t0)
	d.observeAdvert(3, []wire.DemandEntry{{Item: "x", Demand: 1000, Have: 9}}, t0.Add(30*time.Millisecond))

	view := d.peerView("x", t0.Add(35*time.Millisecond))
	if len(view) != 2 {
		t.Fatalf("fresh view has %d peers, want 2", len(view))
	}
	if view[0].site != 2 || view[0].demand != 3 || view[0].have != 7 {
		t.Errorf("view[0] = %+v, want site 2 demand 3 have 7", view[0])
	}

	// 45ms past site 2's advert it has aged out; site 3's is still
	// fresh. A silent peer — down or partitioned away — leaves the
	// rebalancing view exactly this way.
	view = d.peerView("x", t0.Add(45*time.Millisecond))
	if len(view) != 1 || view[0].site != 3 {
		t.Fatalf("stale-filtered view = %+v, want just site 3", view)
	}

	// A replacement advert wholesale-replaces the old one: items it no
	// longer mentions are gone.
	d.observeAdvert(3, []wire.DemandEntry{{Item: "y", Demand: 0, Have: 1}}, t0.Add(50*time.Millisecond))
	if view := d.peerView("x", t0.Add(50*time.Millisecond)); len(view) != 0 {
		t.Errorf("view after replacement advert = %+v, want empty", view)
	}
}

func TestDemandCooldownTestAndSet(t *testing.T) {
	cooldown := 2 * trackerCfg().Interval // 20ms
	var x, y itemState
	t0 := time.Unix(1000, 0)
	if !x.demand.cooldownOK(t0, cooldown) {
		t.Fatal("first transfer blocked")
	}
	if x.demand.cooldownOK(t0.Add(10*time.Millisecond), cooldown) {
		t.Error("transfer inside the cooldown allowed")
	}
	if !y.demand.cooldownOK(t0.Add(10*time.Millisecond), cooldown) {
		t.Error("cooldown leaked across items")
	}
	if !x.demand.cooldownOK(t0.Add(25*time.Millisecond), cooldown) {
		t.Error("transfer after the cooldown blocked")
	}
}

// --- rebalancer end-to-end over simnet ---------------------------------------

// rebalCluster builds a 3-site cluster with the demand rebalancer on a
// fast clock; all value for "x" starts at site 1.
func rebalCluster(t *testing.T) *testCluster {
	t.Helper()
	tc := newTestCluster(t, 3, simnet.Config{Seed: 7}, func(i int, c *Config) {
		c.Rebalance = RebalanceConfig{
			Enabled:     true,
			Interval:    5 * time.Millisecond,
			HalfLife:    200 * time.Millisecond,
			AdvertStale: 25 * time.Millisecond,
			Seed:        int64(i + 1),
		}
	})
	for i, s := range tc.sites {
		share := core.Value(0)
		if i == 0 {
			share = 90
		}
		if err := s.DB().Create("x", share); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

func TestRebalancerShipsTowardDeficit(t *testing.T) {
	tc := rebalCluster(t)
	// Site 3 cannot serve its demand (it holds nothing): feed the
	// tracker the deficit signal a timed-out transaction leaves behind.
	tc.sites[2].recordDeficit([]itemNeed{{"x", 60}})
	waitUntil(t, 2*time.Second, "surplus shipped to the deficit site", func() bool {
		return tc.sites[2].DB().Value("x") >= 40
	})
	tc.waitQuiescent("x", time.Second)
	if got := tc.globalTotal("x"); got != 90 {
		t.Errorf("N = %d after rebalancing, want 90 (Rds conserves value)", got)
	}
	// The no-demand site keeps only around its floor share.
	if v := tc.sites[1].DB().Value("x"); v > 30 {
		t.Errorf("idle site holds %d, want at most its floor-ish share", v)
	}
}

func TestRebalancerIdleClusterStaysQuiet(t *testing.T) {
	tc := rebalCluster(t)
	// Skewed holdings but zero demand anywhere: the quiescence
	// threshold must keep every unit where it lies — no anticipatory
	// reshuffling, no thrash.
	time.Sleep(100 * time.Millisecond) // ~20 ticks per site
	if v := tc.sites[0].DB().Value("x"); v != 90 {
		t.Errorf("idle cluster moved value: site 1 now holds %d, want 90", v)
	}
	for _, s := range tc.sites {
		if n := s.Stats().VmCreated; n != 0 {
			t.Errorf("site %v created %d Vm with zero demand", s.ID(), n)
		}
	}
}

func TestRebalancerPauseResume(t *testing.T) {
	tc := rebalCluster(t)
	for _, s := range tc.sites {
		s.SetRebalancePaused(true)
	}
	tc.sites[2].recordDeficit([]itemNeed{{"x", 60}})
	time.Sleep(60 * time.Millisecond) // ~12 ticks, all skipped
	if v := tc.sites[2].DB().Value("x"); v != 0 {
		t.Fatalf("paused rebalancer moved %d to site 3", v)
	}
	for _, s := range tc.sites {
		s.SetRebalancePaused(false)
	}
	waitUntil(t, 2*time.Second, "transfers resume after unpause", func() bool {
		return tc.sites[2].DB().Value("x") >= 40
	})
}

func TestRebalancerSkipsUnreachablePeers(t *testing.T) {
	tc := rebalCluster(t)
	// Cut site 3 off entirely, then give it deficit demand: its
	// adverts can no longer reach site 1, so after AdvertStale its
	// stale entry drops from the view and nothing ships into the void.
	tc.net.SetLink(1, 3, false)
	tc.net.SetLink(3, 1, false)
	tc.net.SetLink(2, 3, false)
	tc.net.SetLink(3, 2, false)
	time.Sleep(30 * time.Millisecond) // > AdvertStale: pre-cut adverts age out
	tc.sites[2].recordDeficit([]itemNeed{{"x", 60}})
	time.Sleep(60 * time.Millisecond)
	if n := tc.sites[0].Stats().VmCreated; n != 0 {
		t.Errorf("site 1 created %d Vm toward an unreachable peer", n)
	}
	// Heal: adverts flow again and the transfer happens.
	tc.net.SetLink(1, 3, true)
	tc.net.SetLink(3, 1, true)
	tc.net.SetLink(2, 3, true)
	tc.net.SetLink(3, 2, true)
	waitUntil(t, 2*time.Second, "transfer after heal", func() bool {
		return tc.sites[2].DB().Value("x") >= 40
	})
}

// TestRebalancerReducesAbortsUnderSkew is the ablation in miniature:
// all demand at site 1, AskOne policy (the abort-prone corner of F1). A
// rebalancing round every few transactions moves quota to site 1 ahead
// of demand, so it never has to ask and nothing can abort; the same
// workload without it runs site 1 dry and has to ask. The rounds are
// driven from here and drained, not from a timer: a transfer landing
// while a transaction holds the item costs that transaction its grant,
// and counting such collisions would measure the scheduler.
func TestRebalancerReducesAbortsUnderSkew(t *testing.T) {
	const txns, amount = 60, 5
	run := func(rebalance bool) (aborts int, asks uint64) {
		tc := newTestCluster(t, 4, simnet.Config{Seed: 24, MaxDelay: time.Millisecond}, nil)
		tc.createItem("x", 400)
		for k := 0; k < txns; k++ {
			if rebalance && k%5 == 0 {
				for _, s := range tc.sites {
					s.advertiseDemand()
				}
				tc.settle()
				for _, s := range tc.sites {
					s.rebalanceTick()
				}
				tc.waitQuiescent("x", time.Second)
			}
			res := tc.sites[0].Run(&txn.Txn{
				Ops: []txn.ItemOp{{Item: "x", Op: core.Decr{M: amount}}},
				Ask: txn.AskOne, Timeout: 30 * time.Millisecond,
			})
			if !res.Committed() {
				aborts++
			}
		}
		tc.waitQuiescent("x", time.Second)
		if got, want := tc.globalTotal("x"), core.Value(400-amount*(txns-aborts)); got != want {
			t.Errorf("rebalance=%v: N = %d, want %d after %d commits", rebalance, got, want, txns-aborts)
		}
		return aborts, tc.sites[0].Stats().RequestsSent
	}
	without, asksWithout := run(false)
	with, asksWith := run(true)
	if asksWithout == 0 {
		t.Error("without the rebalancer site 1 never asked: the workload does not exercise the skew")
	}
	if with != 0 || asksWith != 0 {
		t.Errorf("with the rebalancer: %d aborts, %d asks; quota should have reached site 1 ahead of demand", with, asksWith)
	}
	t.Logf("aborts: %d without rebalancer, %d with", without, with)
}
