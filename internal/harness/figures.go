package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dvp"
	"dvp/internal/baseline/escrow"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/metrics"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/wire"
)

// expF1: abort rate vs demand pressure and request policy (§3 leaves
// the "one or more sites" choice open; §8 calls for exactly this
// study). A single client at site 1 — so no intra-site lock conflicts
// pollute the measurement — reserves seats it mostly does not hold
// locally; peers drain unevenly as the run progresses, and the ask
// policy decides whether a request finds a peer that still has value
// before the timeout.
func expF1() Experiment {
	return Experiment{
		ID:    "F1",
		Title: "Abort rate vs demand pressure, by ask policy",
		Claim: "§3/§5: when the local value is inadequate, requests are sent to one or more sites; failing responses abort the transaction — the policy sets how often that happens.",
		Run: func(o Options) (*Result, error) {
			const n = 4
			table := metrics.NewTable("F1 — supply concentration → abort% per ask policy",
				"skew-%", "policy", "abort%", "msg/txn", "tps")
			perRun := o.scale(150, 600)
			// skewPct% of the remote supply sits at one peer; a policy
			// that asks few sites often asks a near-empty one.
			for _, skewPct := range []int{34, 70, 95} {
				for _, ask := range []txn.AskPolicy{txn.AskOne, txn.AskTwo, txn.AskAll} {
					c, err := dvp.NewCluster(dvp.Config{Sites: n, Seed: o.seed(), MaxDelay: time.Millisecond})
					if err != nil {
						return nil, err
					}
					// Demand = perRun × 2 seats; supply ×2 headroom;
					// site 1 starts with nothing, so every transaction
					// redistributes.
					supply := core.Value(perRun * 4)
					rich := supply * core.Value(skewPct) / 100
					rest := (supply - rich) / 2
					c.CreateItemShares("flight/A", []dvp.Value{
						0, rich, rest, supply - rich - rest,
					})
					m0 := c.NetStats().Sent
					var committed, aborted int
					start := time.Now()
					for k := 0; k < perRun; k++ {
						res := c.At(1).Run(dvp.NewTxn().
							Sub("flight/A", 2).Ask(ask).
							Timeout(40 * time.Millisecond))
						if res.Committed() {
							committed++
						} else {
							aborted++
						}
					}
					elapsed := time.Since(start)
					msgs := c.NetStats().Sent - m0
					c.Close()
					total := committed + aborted
					table.AddRow(skewPct, ask.String(),
						100*float64(aborted)/float64(total),
						float64(msgs)/float64(max(committed, 1)),
						float64(committed)/elapsed.Seconds())
				}
			}
			return &Result{ID: "F1", Title: "demand pressure vs policy", Table: table,
				Notes: []string{
					"expected shape: ask-one aborts most (its rotating single request often lands",
					"on a drained peer) and cheapest in messages; ask-all the reverse.",
				}}, nil
		},
	}
}

// expF2: the non-blocking bound (§2, §5) against 2PC's in-doubt
// window.
func expF2() Experiment {
	return Experiment{
		ID:    "F2",
		Title: "Worst-case item unavailability when a commit is interrupted",
		Claim: "§2: non-blocking means a decision in a bounded number of locally-measured steps; 2PC's in-doubt participant holds locks until the failure heals.",
		Run: func(o Options) (*Result, error) {
			table := metrics.NewTable("F2 — outage duration D → observed block/abort time",
				"outage-ms", "system", "item-blocked-ms", "txn-decided-ms")
			outages := []int{25, 50, 100, 200}
			if !o.Quick {
				outages = []int{25, 50, 100, 200, 400, 800}
			}
			for _, d := range outages {
				D := time.Duration(d) * time.Millisecond

				// DvP: cut the granting site mid-redistribution for D.
				// The waiting transaction aborts at its own timeout —
				// independent of D — and the item at the healthy site
				// is locked only until then.
				{
					c, err := dvp.NewCluster(dvp.Config{Sites: 2, Seed: o.seed()})
					if err != nil {
						return nil, err
					}
					c.CreateItemShares("x", []dvp.Value{0, 100})
					c.SetLink(2, 1, false) // grants can't return
					t0 := time.Now()
					res := c.At(1).Run(dvp.NewTxn().Sub("x", 5).Timeout(40 * time.Millisecond))
					decided := time.Since(t0)
					blocked := decided // item at site 1 locked until abort
					if res.Committed() {
						return nil, fmt.Errorf("F2: impossible commit")
					}
					time.Sleep(D) // outage persists; nothing else blocks
					c.Heal()
					c.Close()
					table.AddRow(d, "dvp", ms(blocked), ms(decided))
				}

				// 2PC: participants prepare, then votes/decisions are
				// dropped for D. Their items stay locked the whole
				// outage.
				{
					tc, err := newTwopcCluster(3, simnet.Config{Seed: o.seed()})
					if err != nil {
						return nil, err
					}
					tc.createItem("x", 100)
					tc.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool {
						return kind != wire.KVote && kind != wire.KDecision
					})
					t0 := time.Now()
					res := tc.Run(1, &txn.Txn{Ops: []txn.ItemOp{{Item: "x", Op: core.Decr{M: 5}}}})
					decided := time.Since(t0)
					if res.Committed() {
						return nil, fmt.Errorf("F2: impossible 2pc commit")
					}
					time.Sleep(D)
					tc.net.SetFilter(nil)
					// Wait until the in-doubt window actually closes.
					deadline := time.Now().Add(5 * time.Second)
					for time.Now().Before(deadline) {
						if tc.sites[1].Stats().InDoubtNow == 0 {
							break
						}
						time.Sleep(2 * time.Millisecond)
					}
					blocked := tc.sites[1].Stats().BlockedTime
					tc.close()
					table.AddRow(d, "2pc", ms(blocked), ms(decided))
				}
			}
			return &Result{ID: "F2", Title: "blocking bound", Table: table,
				Notes: []string{
					"expected shape: dvp item-blocked-ms stays ≈ its timeout whatever the outage;",
					"2pc item-blocked-ms grows ≈ linearly with the outage (the in-doubt window).",
				}}, nil
		},
	}
}

// expF3: hot-spot aggregate relief (§8, escrow comparison).
func expF3() Experiment {
	return Experiment{
		ID:    "F3",
		Title: "Hot-spot aggregate throughput vs client concurrency",
		Claim: "§8: DvP may alleviate hot-spot contention by letting several processes access a quantity simultaneously; escrow [7] is the single-site state of the art; naive locking serializes.",
		Run: func(o Options) (*Result, error) {
			table := metrics.NewTable("F3 — withdrawals/s against one aggregate field",
				"clients", "naive-lock", "escrow", "dvp-4site")
			concurrencies := []int{1, 2, 4, 8, 16}
			if !o.Quick {
				concurrencies = []int{1, 2, 4, 8, 16, 32, 64}
			}
			perClient := o.scale(60, 150)
			// Every design pays the same per-transaction commit cost:
			// a 500µs stable-storage force-write (a wait, not CPU, so
			// the comparison is core-count independent). Naive holds
			// its exclusive lock across the write — that is its
			// design; escrow and DvP do not.
			const work = 500 * time.Microsecond
			for _, clients := range concurrencies {
				naive := f3Naive(clients, perClient, work)
				esc := f3Escrow(clients, perClient, work)
				dvpTps, err := f3Dvp(o, clients, perClient, work)
				if err != nil {
					return nil, err
				}
				table.AddRow(clients, naive, esc, dvpTps)
			}
			return &Result{ID: "F3", Title: "hot spot", Table: table,
				Notes: []string{
					"expected shape: naive flat (serialized); escrow scales with clients on one site;",
					"dvp scales like escrow while also distributing the field across sites.",
				}}, nil
		},
	}
}

// expF4: guaranteed delivery under loss (§4.2).
func expF4() Experiment {
	return Experiment{
		ID:    "F4",
		Title: "Vm delivery latency and conservation under message loss",
		Claim: "§4.2: a Vm is never lost; if a message is resent often enough it is eventually delivered — at the cost of latency, never of value.",
		Run: func(o Options) (*Result, error) {
			table := metrics.NewTable("F4 — loss% → redistribution latency and conservation",
				"loss%", "commit%", "p50", "p99", "retransmits/txn", "conserved")
			perRun := o.scale(40, 150)
			for _, loss := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
				c, err := dvp.NewCluster(dvp.Config{
					Sites: 2, Seed: o.seed(), LossProb: loss,
					MaxDelay: time.Millisecond, RetransmitEvery: 5 * time.Millisecond,
				})
				if err != nil {
					return nil, err
				}
				total := dvp.Value(perRun * 4)
				c.CreateItemShares("x", []dvp.Value{0, total})
				lat := &metrics.Histogram{}
				committed := 0
				for k := 0; k < perRun; k++ {
					// Site 1 always needs redistribution: its quota is
					// drained by construction (every grant is spent).
					res := c.At(1).Run(dvp.NewTxn().Sub("x", 2).
						Timeout(500 * time.Millisecond))
					if res.Committed() {
						committed++
						lat.Record(res.Latency)
					}
				}
				c.Quiesce(5 * time.Second)
				conserved := c.GlobalTotal("x") == total-dvp.Value(committed*2)
				retx := float64(c.SiteStats(2).Retransmissions) / float64(max(committed, 1))
				c.Close()
				table.AddRow(int(loss*100), pct(committed, perRun),
					lat.Quantile(0.5), lat.Quantile(0.99), retx, conserved)
			}
			return &Result{ID: "F4", Title: "Vm under loss", Table: table,
				Notes: []string{
					"conserved must be true in every row;",
					"expected shape: latency and retransmissions grow with loss; value never disappears.",
				}}, nil
		},
	}
}

// expF5: the partition/heal timeline (§3).
func expF5() Experiment {
	return Experiment{
		ID:    "F5",
		Title: "Committed throughput across a partition/heal timeline",
		Claim: "§3/§8: in the case of network partitions there is still the possibility of continuing with normal operations — high accessibility through the outage.",
		Run: func(o Options) (*Result, error) {
			const n = 4
			tick := 50 * time.Millisecond
			ticks := o.scale(24, 48)
			partFrom, partTo := ticks/3, 2*ticks/3
			table := metrics.NewTable(
				fmt.Sprintf("F5 — commits per %v tick; partition during [%d,%d)", tick, partFrom, partTo),
				"tick", "dvp", "2pc", "partitioned")

			// Both systems pay a 200µs forced-write latency, and every
			// client paces itself ~1ms between transactions: without
			// pacing, DvP's sub-millisecond local commits monopolize
			// the scheduler and starve the 2PC protocol goroutines of
			// CPU, which would show as a false 2PC outage.
			const storage = 200 * time.Microsecond
			const pace = time.Millisecond
			c, err := dvp.NewCluster(dvp.Config{Sites: n, Seed: o.seed(), LogAppendDelay: storage})
			if err != nil {
				return nil, err
			}
			c.CreateItem("flight/A", 1_000_000)
			// 2PC side, same demand.
			tc, err := newTwopcClusterDelay(n, simnet.Config{Seed: o.seed()}, storage)
			if err != nil {
				return nil, err
			}
			tc.createItem("flight/A", 1_000_000)

			dvpTicks := make([]uint64, ticks)
			tpcTicks := make([]uint64, ticks)
			var tickNow int64
			var mu sync.Mutex
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 1; i <= n; i++ {
				wg.Add(2)
				go func(i int) { // DvP clients
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res := c.At(i).Run(dvp.NewTxn().Sub("flight/A", 1).
							Timeout(30 * time.Millisecond))
						if res.Committed() {
							mu.Lock()
							if t := int(tickNow); t < ticks {
								dvpTicks[t]++
							}
							mu.Unlock()
						}
						time.Sleep(pace)
					}
				}(i)
				go func(i int) { // 2PC clients
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res := tc.Run(i, &txn.Txn{Ops: []txn.ItemOp{
							{Item: "flight/A", Op: core.Decr{M: 1}},
						}})
						if res.Committed() {
							mu.Lock()
							if t := int(tickNow); t < ticks {
								tpcTicks[t]++
							}
							mu.Unlock()
						}
						time.Sleep(pace)
					}
				}(i)
			}
			for t := 0; t < ticks; t++ {
				if t == partFrom {
					c.PartitionGroups([]int{1, 2}, []int{3, 4})
					tc.net.Partition([]ident.SiteID{1, 2}, []ident.SiteID{3, 4})
				}
				if t == partTo {
					c.Heal()
					tc.net.Heal()
				}
				time.Sleep(tick)
				mu.Lock()
				tickNow++
				mu.Unlock()
			}
			close(stop)
			wg.Wait()
			c.Close()
			tc.close()
			for t := 0; t < ticks; t++ {
				table.AddRow(t, dvpTicks[t], tpcTicks[t], t >= partFrom && t < partTo)
			}
			return &Result{ID: "F5", Title: "partition timeline", Table: table,
				Notes: []string{
					"expected shape: dvp throughput continues through the partition window;",
					"2pc throughput drops to ~0 inside it and resumes after heal.",
				}}, nil
		},
	}
}

// expF6: quota flow toward demand — the paper's §3 worked example as
// a time series.
func expF6() Experiment {
	return Experiment{
		ID:    "F6",
		Title: "Per-site quota dynamics with demand at one site",
		Claim: "§3: the motivation for sending requests is to redistribute the value so the demanding site can proceed — value flows to demand while N is conserved.",
		Run: func(o Options) (*Result, error) {
			const n = 4
			table := metrics.NewTable("F6 — N_1..N_4 after every 10 one-seat reservations at site 1",
				"step", "N1", "N2", "N3", "N4", "in-flight", "N")
			c, err := dvp.NewCluster(dvp.Config{Sites: n, Seed: o.seed(), MaxDelay: time.Millisecond})
			if err != nil {
				return nil, err
			}
			c.CreateItem("flight/A", 100) // 25/25/25/25, the paper's opening state
			steps := o.scale(6, 9)
			row := func(step int) {
				c.Quiesce(time.Second)
				var onSite dvp.Value
				var qs [n]dvp.Value
				for i := 1; i <= n; i++ {
					qs[i-1] = c.Quota(i, "flight/A")
					onSite += qs[i-1]
				}
				total := c.GlobalTotal("flight/A")
				table.AddRow(step, qs[0], qs[1], qs[2], qs[3], total-onSite, total)
			}
			row(0)
			for step := 1; step <= steps; step++ {
				for k := 0; k < 10; k++ {
					c.At(1).RunRetry(dvp.NewTxn().Sub("flight/A", 1).
						Timeout(80*time.Millisecond), 3)
				}
				row(step)
			}
			c.Close()
			return &Result{ID: "F6", Title: "quota dynamics", Table: table,
				Notes: []string{
					"expected shape: N_2..N_4 drain toward site 1 as its demand exhausts local quota;",
					"N falls by exactly the committed reservations; in-flight returns to 0 at each step.",
				}}, nil
		},
	}
}

// --- F3 helpers ---------------------------------------------------------------

// f3Naive measures the lock-held-for-the-transaction design.
func f3Naive(clients, perClient int, work time.Duration) float64 {
	acct := escrow.NewLockedAccount(core.Value(clients*perClient) * 2)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, commit, _ := acct.Begin()
				time.Sleep(work) // force-write INSIDE the exclusive lock
				commit(-1)
			}
		}()
	}
	wg.Wait()
	return float64(clients*perClient) / time.Since(start).Seconds()
}

// f3Escrow measures O'Neil's method: the account lock is held only
// for the escrow test; the commit work happens outside it.
func f3Escrow(clients, perClient int, work time.Duration) float64 {
	acct, _ := escrow.NewAccount(core.Value(clients*perClient) * 2)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				h, err := acct.EscrowDecr(1)
				if err != nil {
					continue
				}
				time.Sleep(work) // force-write OUTSIDE the account lock
				h.Commit()
			}
		}()
	}
	wg.Wait()
	return float64(clients*perClient) / time.Since(start).Seconds()
}

// f3Dvp measures DvP with the field partitioned over 4 sites; clients
// round-robin across sites. Its commit pays the same force-write
// latency through the site's (slow) stable log. Only committed
// withdrawals count: naive and escrow never abort here, DvP can.
func f3Dvp(o Options, clients, perClient int, work time.Duration) (float64, error) {
	const n = 4
	c, err := dvp.NewCluster(dvp.Config{Sites: n, Seed: o.seed(), LogAppendDelay: work})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.CreateItem("agg", core.Value(clients*perClient)*2)
	var committed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := w%n + 1
			for i := 0; i < perClient; i++ {
				if c.At(at).Run(dvp.NewTxn().Sub("agg", 1).Timeout(50 * time.Millisecond)).Committed() {
					committed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(committed.Load()) / time.Since(start).Seconds(), nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
