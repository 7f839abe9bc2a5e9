package harness

import (
	"math"
	"sync"
	"time"

	"dvp"
	"dvp/internal/core"
	"dvp/internal/metrics"
)

// expA1: ablation — proactive rebalancing (Rds transactions, §5/§8).
// The paper's demand-driven requests are reactive; §8 asks for
// "performance studies to find the best ways to distribute the data".
// A1 measures the abort-rate effect of the site rebalancer (quota
// shipped toward observed demand ahead of it) under concentrated
// demand.
func expA1() Experiment {
	return Experiment{
		ID:    "A1",
		Title: "Ablation: proactive rebalancing vs on-demand requests only",
		Claim: "§5/§8: Rds transactions may redistribute value ahead of demand; the paper leaves the distribution policy to future study.",
		Run: func(o Options) (*Result, error) {
			const n = 4
			table := metrics.NewTable("A1 — all demand at site 1, ask-one requests",
				"rebalancer", "abort%", "tps", "rds-transfers")
			perRun := o.scale(120, 500)
			for _, rebalance := range []bool{false, true} {
				c, err := dvp.NewCluster(dvp.Config{Sites: n, Seed: o.seed(), MaxDelay: time.Millisecond,
					Rebalance: dvp.RebalanceOptions{Enabled: rebalance, Interval: 8 * time.Millisecond}})
				if err != nil {
					return nil, err
				}
				c.CreateItem("x", core.Value(perRun*3))
				var committed, aborted int
				start := time.Now()
				for k := 0; k < perRun; k++ {
					res := c.At(1).Run(dvp.NewTxn().Sub("x", 2).
						Ask(dvp.AskOne).Timeout(40 * time.Millisecond))
					if res.Committed() {
						committed++
					} else {
						aborted++
					}
				}
				elapsed := time.Since(start)
				transfers := c.Metrics().SumCounters("dvp_rebalance_transfers_total")
				c.Close()
				table.AddRow(rebalance,
					100*float64(aborted)/float64(committed+aborted),
					float64(committed)/elapsed.Seconds(), transfers)
			}
			return &Result{ID: "A1", Title: "rebalancer ablation", Table: table,
				Notes: []string{
					"expected shape: with the rebalancer, abort% drops sharply and tps rises —",
					"value arrives at the hot site before demand does.",
				}}, nil
		},
	}
}

// expA3: ablation — grant policy (§3 leaves "how much to send" open;
// core.SplitPolicy implements the candidates).
func expA3() Experiment {
	return Experiment{
		ID:    "A3",
		Title: "Ablation: quota grant policy under repeated shortfall",
		Claim: "§3: 'site Z decides to send 5 seats' — the grant size is a policy; generous grants amortize future requests, stingy ones keep value where it was.",
		Run: func(o Options) (*Result, error) {
			const n = 4
			table := metrics.NewTable("A3 — drained site 1 reserving repeatedly (ask-all)",
				"grant-policy", "abort%", "msg/txn", "requests-honored")
			perRun := o.scale(120, 500)
			policies := []dvp.GrantPolicy{
				dvp.GrantExact, dvp.GrantHalfExcess, dvp.GrantAll,
			}
			for _, pol := range policies {
				c, err := dvp.NewCluster(dvp.Config{
					Sites: n, Seed: o.seed(), MaxDelay: time.Millisecond, Grant: pol,
				})
				if err != nil {
					return nil, err
				}
				c.CreateItemShares("x", []dvp.Value{0,
					core.Value(perRun), core.Value(perRun), core.Value(perRun)})
				m0 := c.NetStats().Sent
				var committed, aborted int
				for k := 0; k < perRun; k++ {
					res := c.At(1).Run(dvp.NewTxn().Sub("x", 2).
						Ask(dvp.AskAll).Timeout(50 * time.Millisecond))
					if res.Committed() {
						committed++
					} else {
						aborted++
					}
				}
				msgs := c.NetStats().Sent - m0
				honored := uint64(0)
				for i := 1; i <= n; i++ {
					honored += c.SiteStats(i).RequestsHonored
				}
				c.Close()
				table.AddRow(pol.String(),
					100*float64(aborted)/float64(committed+aborted),
					float64(msgs)/float64(max(committed, 1)), honored)
			}
			return &Result{ID: "A3", Title: "grant policy ablation", Table: table,
				Notes: []string{
					"expected shape: generous policies (half-excess, all) need fewer honored",
					"requests and fewer messages per committed transaction than exact grants.",
				}}, nil
		},
	}
}

// expA2: ablation — the decentralized demand-driven rebalancer vs no
// rebalancing, under Zipf-skewed bursty demand. §8 leaves "the best
// ways to distribute the data values among the sites" to performance
// studies; this is that study.
//
// The workload is a storefront economy: each round, every site's
// storefront sells a burst of seats (burst sizes Zipf-skewed across
// sites, site 1 hottest), then producers at the cold sites restock
// what sold, keeping total supply roughly constant. The burst is
// where placement policy shows: a site can only serve a burst from
// the buffer it holds when the burst starts — mid-burst asks ride a
// lossy network on a tight timeout. Without rebalancing every buffer
// stays where restocking left it; the demand-driven policy sizes the
// hot site's buffer to its observed burst rate.
func expA2() Experiment {
	return Experiment{
		ID:    "A2",
		Title: "Ablation: demand-driven rebalancing vs none under Zipf-skewed bursts",
		Claim: "§8: performance studies are required to determine the best ways to distribute the data values among the sites.",
		Run: func(o Options) (*Result, error) {
			const n = 4
			table := metrics.NewTable("A2 — Zipf burst demand, producer restock, ask-one, 25% loss, 6ms timeouts",
				"zipf-s", "rebalancer", "deficit-abort%", "abort%", "tps", "transfers")
			rounds := o.scale(8, 24)
			const supply = core.Value(240) // total value in the economy
			const roundUnits = 120         // units sold per round across all sites
			for _, skew := range []float64{0.5, 1.5, 3.0} {
				// Zipf site weights: site i sells ∝ 1/i^s of each round.
				weights := make([]float64, n)
				var wsum float64
				for i := range weights {
					weights[i] = 1 / math.Pow(float64(i+1), skew)
					wsum += weights[i]
				}
				burst := make([]int, n) // Sub-8 transactions per site per round
				for i := range burst {
					burst[i] = int(float64(roundUnits) / 8 * weights[i] / wsum)
				}
				for _, mode := range []string{"off", "demand"} {
					c, err := dvp.NewCluster(dvp.Config{Sites: n, Seed: o.seed(),
						MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond,
						LogAppendDelay: 300 * time.Microsecond,
						LossProb:       0.25,
						Rebalance: dvp.RebalanceOptions{
							Enabled:     mode == "demand",
							Interval:    5 * time.Millisecond,
							HalfLife:    100 * time.Millisecond,
							AdvertStale: 25 * time.Millisecond,
						}})
					if err != nil {
						return nil, err
					}
					c.CreateItem("x", supply)
					var mu sync.Mutex
					var committed, aborted int
					start := time.Now()
					for r := 0; r < rounds; r++ {
						// Sell: concurrent bursts at every storefront.
						var sold int64
						var wg sync.WaitGroup
						for i := 1; i <= n; i++ {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								for k := 0; k < burst[i-1]; k++ {
									res := c.At(i).Run(dvp.NewTxn().Sub("x", 8).
										Ask(dvp.AskOne).Timeout(6 * time.Millisecond))
									mu.Lock()
									if res.Committed() {
										committed++
										sold += 8
									} else {
										aborted++
									}
									mu.Unlock()
								}
							}(i)
						}
						wg.Wait()
						// Restock: producers at the cold sites put back
						// what sold (local write-only commits).
						for i := 0; sold > 0; i++ {
							site := 2 + i%(n-1) // sites 2..n
							if res := c.At(site).Run(dvp.NewTxn().Add("x", 4)); res.Committed() {
								mu.Lock()
								committed++
								mu.Unlock()
								sold -= 4
							}
						}
						// Lull between bursts: the rebalancer places the
						// restocked value for the next round.
						time.Sleep(25 * time.Millisecond)
					}
					elapsed := time.Since(start)
					var deficits uint64
					for i := 1; i <= n; i++ {
						deficits += c.SiteStats(i).AbortTimeout
					}
					transfers := c.Metrics().SumCounters("dvp_rebalance_transfers_total")
					c.Close()
					total := committed + aborted
					table.AddRow(skew, mode,
						100*float64(deficits)/float64(total),
						100*float64(aborted)/float64(total),
						float64(committed)/elapsed.Seconds(), transfers)
				}
			}
			return &Result{ID: "A2", Title: "demand-rebalancing ablation", Table: table,
				Notes: []string{
					"expected shape: as skew rises past the point where the hot site's burst",
					"exceeds its share, off aborts on the burst tail; the demand-driven",
					"rebalancer sizes the hot buffer to demand and stays low.",
				}}, nil
		},
	}
}
