package harness

import (
	"fmt"
	"sync"
	"time"

	"dvp"
	"dvp/internal/core"
	"dvp/internal/metrics"
)

// expP1: performance — the group-commit WAL pipeline. §5 makes the
// stability of the commit record the commit point; nothing says each
// transaction must pay its own force-write. P1 sweeps site count and
// committers per site, with a fixed simulated force-write cost per
// flush (LogAppendDelay), so the batching win is deterministic and
// visible regardless of host disk speed.
func expP1() Experiment {
	return Experiment{
		ID:    "P1",
		Title: "Group commit: local-commit throughput vs sites and committers",
		Claim: "§5: 'the stability of the record commit(t)' is the commit point — whose force-write made it stable is immaterial, so concurrent commit records can share one.",
		Run: func(o Options) (*Result, error) {
			table := metrics.NewTable("P1 — disjoint local reserves, 200µs simulated force-write per flush",
				"sites", "committers/site", "tps", "mean-batch")
			sitesSweep := []int{1, 3}
			clientSweep := []int{1, 8}
			if !o.Quick {
				sitesSweep = []int{1, 2, 4}
				clientSweep = []int{1, 2, 4, 8}
			}
			perClient := o.scale(40, 150)
			for _, n := range sitesSweep {
				for _, clients := range clientSweep {
					c, err := dvp.NewCluster(dvp.Config{
						Sites:          n,
						Seed:           o.seed(),
						LogAppendDelay: 200 * time.Microsecond,
					})
					if err != nil {
						return nil, err
					}
					// One private item per (site, committer) with all of
					// its value at the owning site: pure local commits,
					// no redistribution inside the measurement.
					item := func(i, cl int) string { return fmt.Sprintf("p1/s%d/c%d", i, cl) }
					for i := 1; i <= n; i++ {
						for cl := 0; cl < clients; cl++ {
							shares := make([]dvp.Value, n)
							shares[i-1] = core.Value(perClient) + 1
							if err := c.CreateItemShares(item(i, cl), shares); err != nil {
								c.Close()
								return nil, err
							}
						}
					}
					var mu sync.Mutex
					var committed uint64
					start := time.Now()
					var wg sync.WaitGroup
					for i := 1; i <= n; i++ {
						for cl := 0; cl < clients; cl++ {
							wg.Add(1)
							go func(i, cl int) {
								defer wg.Done()
								it := item(i, cl)
								for k := 0; k < perClient; k++ {
									if c.At(i).Reserve(it, 1).Committed() {
										mu.Lock()
										committed++
										mu.Unlock()
									}
								}
							}(i, cl)
						}
					}
					wg.Wait()
					elapsed := time.Since(start)
					meanBatch := 0.0
					if flushes := c.Metrics().SumCounters("dvp_wal_group_flushes_total"); flushes > 0 {
						meanBatch = float64(c.Metrics().SumCounters("dvp_wal_group_records_total")) /
							float64(flushes)
					}
					c.Close()
					table.AddRow(n, clients, float64(committed)/elapsed.Seconds(), meanBatch)
				}
			}
			return &Result{ID: "P1", Title: "group-commit throughput", Table: table,
				Notes: []string{
					"expected shape: one force covers the whole batch, so tps scales with",
					"committers; each force holds for the committers the last one released,",
					"so most of them share it: mean-batch approaches the committer count",
					"(not half of it, as when forces alternated). Sites scale throughput",
					"linearly — each site owns its log.",
				}}, nil
		},
	}
}

// expP2: performance — committing without asking. §5 observes that
// write-only transactions with adequate local quota need none of the
// redistribution machinery; Run commits them under their admission
// stripes, no waiter, no message. P2 sweeps the fraction of an item's
// value held at the executing site and reports the no-wait hit rate:
// with everything local every commit is of that shape, and as the
// local share shrinks, transactions increasingly find a shortfall and
// redistribute first (which then feeds later hits).
func expP2() Experiment {
	return Experiment{
		ID:    "P2",
		Title: "No-wait commits: local hit rate vs quota distribution",
		Claim: "§5: 'in case of write-only transactions, the initial steps of data redistribution can be ignored' — when local quota suffices, the entire redistribution apparatus (and its allocations) is skippable.",
		Run: func(o Options) (*Result, error) {
			table := metrics.NewTable("P2 — single-unit reserves at site 1, varying site 1's initial share",
				"local-share", "committed", "fast-commits", "fallbacks", "hit-rate", "tps")
			shares := []float64{1.0, 0.5, 0.1}
			if !o.Quick {
				shares = []float64{1.0, 0.75, 0.5, 0.25, 0.1}
			}
			const sites = 4
			txns := o.scale(150, 800)
			for _, frac := range shares {
				c, err := dvp.NewCluster(dvp.Config{Sites: sites, Seed: o.seed()})
				if err != nil {
					return nil, err
				}
				// Twice the workload's demand in total value, frac of it
				// at the executing site: the run never exhausts the item
				// globally, but the local share does run dry when frac is
				// small — exactly the redistribution pressure being swept.
				total := core.Value(2 * txns)
				local := core.Value(float64(total) * frac)
				sh := make([]dvp.Value, sites)
				sh[0] = local
				rest := core.EvenShares(total-local, sites-1)
				copy(sh[1:], rest)
				if err := c.CreateItemShares("p2/item", sh); err != nil {
					c.Close()
					return nil, err
				}
				var committed uint64
				start := time.Now()
				for k := 0; k < txns; k++ {
					if c.At(1).RunRetry(dvp.NewTxn().Sub("p2/item", 1).Label("reserve"), 3).Committed() {
						committed++
					}
				}
				elapsed := time.Since(start)
				fast := c.Metrics().SumCounters("dvp_fastpath_commits_total")
				fb := c.Metrics().SumCounters("dvp_fastpath_fallback_total")
				hitRate := 0.0
				if fast+fb > 0 {
					hitRate = float64(fast) / float64(fast+fb)
				}
				c.Close()
				table.AddRow(fmt.Sprintf("%.0f%%", frac*100), committed, fast, fb,
					hitRate, float64(committed)/elapsed.Seconds())
			}
			return &Result{ID: "P2", Title: "no-wait hit rate", Table: table,
				Notes: []string{
					"expected shape: at 100% local share the hit rate is ~1.0 — every reserve",
					"commits without asking, no messages. As the share shrinks the local",
					"quota runs dry sooner and the transaction pulls peer quota first; each",
					"redistribution refills the local share, so the hit rate degrades",
					"gracefully rather than cliffing. tps tracks the hit rate: a no-wait",
					"commit costs no network round trip and no waiter.",
				}}, nil
		},
	}
}
