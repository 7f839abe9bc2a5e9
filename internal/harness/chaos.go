package harness

import (
	"fmt"

	"dvp/internal/chaos"
	"dvp/internal/metrics"
)

// expC1 runs the seeded chaos harness as an experiment: each seed is a
// distinct crash/partition schedule whose seven invariant families —
// durability, conservation, non-negativity, exactly-once Vm
// application, serializability, idempotence against recovery's rebuild
// and the rebalancer's anti-thrash — are checked at every round
// barrier. The "result" is the fault coverage achieved with zero
// violations.
func expC1() Experiment {
	return Experiment{
		ID:    "C1",
		Title: "chaos: invariants under crash/partition schedules",
		Claim: "no data-values are lost (or duplicated) due to failures; the effect is serializable (§4, §6, §7)",
		Run: func(opts Options) (*Result, error) {
			n := opts.scale(5, 20)
			table := metrics.NewTable("chaos invariant coverage",
				"seed", "sites", "crashes", "restarts", "partitions", "flaps", "ckpts",
				"committed", "aborted", "checks")
			totalChecks := 0
			for s := opts.seed(); s < opts.seed()+int64(n); s++ {
				sched := chaos.Build(s)
				rep, err := chaos.Run(sched, chaos.Options{})
				if err != nil {
					return nil, fmt.Errorf("invariant violation (replay with dvpsim chaos -seed %d -v): %w", s, err)
				}
				table.AddRow(s, rep.Sites, rep.Crashes, rep.Restarts, rep.Partitions,
					rep.LinkFlaps, rep.Checkpoints, rep.Committed, rep.Aborted, rep.InvariantChecks)
				totalChecks += rep.InvariantChecks
			}
			return &Result{ID: "C1", Title: "chaos invariants", Table: table,
				Notes: []string{
					fmt.Sprintf("all 7 invariant families held at all %d barriers across %d seeds: PASS", totalChecks, n),
				}}, nil
		},
	}
}
