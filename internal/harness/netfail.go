package harness

import (
	"fmt"
	"sync"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/metrics"
	"dvp/internal/obs"
	"dvp/internal/site"
	"dvp/internal/tcpnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
)

// n1Sites is the N1 cluster size: 4 real-socket sites, one of which
// dies mid-experiment. The paper's loss model (§4.2: Send is
// best-effort, retransmission owns reliability) is exactly what makes
// a silent peer death survivable — N1 measures what surviving it costs.
const n1Sites = 4

// expN1: peer-failure resilience over real sockets. The §4.2 failure
// model says a dead peer must cost the survivors nothing but the value
// parked in flight toward it — not their own throughput. N1 runs four
// DvP sites over loopback TCP, measures survivor throughput with all
// peers up, then kills one site and measures again, on the tcpnet peer
// state machine (dial backoff with jitter, priority shedding, adaptive
// Vm retransmission). The headline numbers are the throughput ratio
// and the dial-attempt count toward the dead peer over the outage
// window; the pre-hardening transport's figures are history
// (EXPERIMENTS N1 cites them from commit 0bd88bd).
func expN1() Experiment {
	return Experiment{
		ID:    "N1",
		Title: "Peer outage: survivor throughput and dial pressure",
		Claim: "§4.2: loss of messages is tolerated by the Vm mechanism — a dead peer should degrade only the value routed through it, not the survivors' local throughput.",
		Run: func(o Options) (*Result, error) {
			table := metrics.NewTable("N1 — 4 sites over loopback TCP, site 4 killed between windows",
				"mode", "baseline-tps", "outage-tps", "ratio", "dials→dead", "drops")
			baseline := time.Duration(o.scale(250, 3000)) * time.Millisecond
			outage := time.Duration(o.scale(250, 10000)) * time.Millisecond
			r, err := runN1(o, baseline, outage)
			if err != nil {
				return nil, err
			}
			table.AddRow("hardened", r.baseTPS, r.outTPS, r.ratio(), r.dials, r.drops)
			notes := []string{
				fmt.Sprintf("outage/baseline ratio %.2f (acceptance target ≥ 0.90), %d dial attempts toward the dead peer in %v",
					r.ratio(), r.dials, outage.Round(time.Millisecond)),
				"the dial column carries the mechanism: each survivor pays one timed",
				"probe per backoff window (capped at 2s), so attempts stay rate-bounded",
				"however long the outage runs — adverts, requests and retransmissions",
				"queue behind the held frame instead of each triggering a connect().",
			}
			return &Result{ID: "N1", Title: "peer-outage resilience", Table: table, Notes: notes}, nil
		},
	}
}

// n1Stats is one run's measurement.
type n1Stats struct {
	baseTPS, outTPS float64
	dials, drops    uint64
}

func (s n1Stats) ratio() float64 {
	if s.baseTPS <= 0 {
		return 0
	}
	return s.outTPS / s.baseTPS
}

// runN1 builds a fresh 4-site cluster over real sockets, runs the
// baseline window at sites 1–3 (site 4 up and serving), kills site 4,
// and runs the outage window at the same three survivors.
func runN1(o Options, baseline, outage time.Duration) (n1Stats, error) {
	reg := obs.NewRegistry()
	peers := make([]ident.SiteID, n1Sites)
	for i := range peers {
		peers[i] = ident.SiteID(i + 1)
	}

	// Endpoints first: all listen on ephemeral loopback ports, then the
	// full address map is installed everywhere.
	eps := make([]*tcpnet.Endpoint, n1Sites)
	addrs := make(map[ident.SiteID]string, n1Sites)
	for i := 0; i < n1Sites; i++ {
		ep, err := tcpnet.New(tcpnet.Config{
			Site:    ident.SiteID(i + 1),
			Listen:  "127.0.0.1:0",
			Metrics: reg,
		})
		if err != nil {
			return n1Stats{}, err
		}
		eps[i] = ep
		addrs[ident.SiteID(i+1)] = ep.Addr()
	}
	for _, ep := range eps {
		ep.SetPeers(addrs)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	// Each site is the one a deployment runs, over a memory device.
	sites := make([]*site.Site, 0, n1Sites)
	defer func() {
		for _, s := range sites {
			s.Close()
		}
	}()
	for i := 0; i < n1Sites; i++ {
		s, err := site.Open(wal.NewMemLog(), site.Config{
			ID: ident.SiteID(i + 1), Peers: peers,
			Endpoint:        eps[i],
			CC:              cc.New(cc.Conc1),
			RetransmitEvery: 5 * time.Millisecond,
			DefaultTimeout:  200 * time.Millisecond,
			Rebalance: site.RebalanceConfig{
				// The rebalancer gossips adverts to every peer each tick:
				// during the outage that is a steady frame stream toward
				// the corpse — the realistic background load the dial
				// backoff exists for.
				Enabled:  true,
				Interval: 5 * time.Millisecond,
				Seed:     o.seed() + int64(i),
			},
		})
		if err != nil {
			return n1Stats{}, err
		}
		s.Start()
		sites = append(sites, s)
	}

	// Stock: each site fully owns its local item (the all-local
	// workload), and the cross-site pool lives only at sites 2 and 4 —
	// so survivors 1 and 3 must redistribute over the wire, and during
	// the outage half the pool's supply is parked at a corpse.
	for i := 0; i < n1Sites; i++ {
		pool := core.Value(0)
		if i%2 == 1 {
			pool = 1 << 30
		}
		if _, _, err := sites[i].Place([]wal.Action{{Item: n1Item(i + 1), Delta: 1}, {Item: "n1/pool", Delta: pool}}); err != nil {
			return n1Stats{}, err
		}
	}

	survivors := sites[:n1Sites-1]
	base := driveN1(survivors, baseline)
	d0 := reg.SumCounters("dvp_net_dial_failures_total")
	p0 := reg.SumCounters("dvp_net_dropped_frames_total")

	// Kill site 4: engine first (stops its loops), then the endpoint
	// (closes the listener, so survivor dials are refused, not queued).
	sites[n1Sites-1].Crash()
	eps[n1Sites-1].Close()

	out := driveN1(survivors, outage)
	return n1Stats{
		baseTPS: base.tps(),
		outTPS:  out.tps(),
		dials:   reg.SumCounters("dvp_net_dial_failures_total") - d0,
		drops:   reg.SumCounters("dvp_net_dropped_frames_total") - p0,
	}, nil
}

func n1Item(site int) ident.ItemID {
	return ident.ItemID(fmt.Sprintf("n1/site%d", site))
}

// driveN1 runs one client per survivor site for the window: mostly
// local increments on the site's own item (no-wait commits, the
// throughput carrier), with every 16th transaction a cross-site pool
// draw under AskAll — the request fan-out that keeps real frames (and,
// during the outage, dial pressure) flowing toward every peer. A short
// pacing sleep bounds the WAL growth over long windows without hiding
// the outage's latency effects.
func driveN1(survivors []*site.Site, window time.Duration) runStats {
	stats := runStats{latency: &metrics.Histogram{}}
	var mu sync.Mutex
	deadline := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range survivors {
		wg.Add(1)
		go func(s *site.Site) {
			defer wg.Done()
			own := n1Item(int(s.ID()))
			for k := 0; time.Now().Before(deadline); k++ {
				var t *txn.Txn
				if k%16 == 15 {
					t = &txn.Txn{
						Ops:     []txn.ItemOp{{Item: "n1/pool", Op: core.Decr{M: 1}}},
						Ask:     txn.AskAll,
						Timeout: 50 * time.Millisecond,
					}
				} else {
					t = &txn.Txn{Ops: []txn.ItemOp{{Item: own, Op: core.Incr{M: 1}}}}
				}
				res := s.Run(t)
				mu.Lock()
				if res.Committed() {
					stats.committed++
					stats.latency.Record(res.Latency)
				} else {
					stats.aborted++
				}
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
			}
		}(s)
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	return stats
}
