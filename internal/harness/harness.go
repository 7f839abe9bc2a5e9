// Package harness defines and runs the repository's evaluation: the
// tables (T1–T5) and figures (F1–F6) indexed in DESIGN.md §3. The
// paper itself published no measurements ("we have not addressed the
// issues of performance", §8); each experiment here quantifies one
// claim the paper makes in prose, against the baselines it cites.
//
// Every experiment is deterministic for a given seed up to goroutine
// scheduling, runs in seconds in Quick mode (bench/CI) and tens of
// seconds in full mode (cmd/dvpsim), and emits a metrics.Table whose
// rows are the "published" result.
package harness

import (
	"fmt"
	"sync"
	"time"

	"dvp"
	"dvp/internal/metrics"
	"dvp/internal/txn"
	"dvp/internal/workload"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks sweeps and transaction counts for benchmarks and
	// CI; the shapes remain, the precision drops.
	Quick bool
	// Seed drives workloads and fault schedules (0 means 1).
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// scale returns q in Quick mode and f otherwise.
func (o Options) scale(q, f int) int {
	if o.Quick {
		return q
	}
	return f
}

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	Table *metrics.Table
	// Notes carry pass/fail checks and caveats printed under the
	// table (e.g. "conservation: PASS").
	Notes []string
}

// Experiment is one entry in the evaluation.
type Experiment struct {
	ID    string
	Title string
	// Claim quotes the paper statement the experiment tests.
	Claim string
	Run   func(Options) (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		expT1(), expT2(), expT3(), expT4(), expT5(),
		expF1(), expF2(), expF3(), expF4(), expF5(), expF6(),
		expA1(), expA2(), expA3(),
		expP1(), expP2(),
		expN1(),
		expC1(),
	}
}

// ByID finds an experiment by its identifier (case-sensitive, e.g.
// "T2").
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// --- shared drivers ----------------------------------------------------------

// runStats aggregates one workload run.
type runStats struct {
	committed uint64
	aborted   uint64
	latency   *metrics.Histogram
	elapsed   time.Duration
	msgs      uint64 // network messages sent during the run
	requests  uint64 // redistribution requests
}

func (r runStats) tps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.committed) / r.elapsed.Seconds()
}

func (r runStats) abortPct() float64 {
	total := r.committed + r.aborted
	if total == 0 {
		return 0
	}
	return 100 * float64(r.aborted) / float64(total)
}

func (r runStats) msgsPerTxn() float64 {
	if r.committed == 0 {
		return 0
	}
	return float64(r.msgs) / float64(r.committed)
}

// runner abstracts "a system that executes transactions at a site" so
// one driver loads DvP and every baseline identically.
type runner interface {
	// Run executes tx at 1-based site index i.
	Run(i int, tx *txn.Txn) *txn.Result
	// Sites is the number of sites.
	Sites() int
	// MessagesSent reads the network's sent counter.
	MessagesSent() uint64
}

// drive runs `clients` client goroutines at every site concurrently,
// each issuing perClient transactions from its own generator. Seeds
// are offset by site and client, so demand is balanced unless the
// workload's weights say otherwise and intra-site clients contend.
func drive(r runner, wcfg workload.Config, clients, perClient int, timeout time.Duration) runStats {
	stats := runStats{latency: &metrics.Histogram{}}
	var mu sync.Mutex
	m0 := r.MessagesSent()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i <= r.Sites(); i++ {
		for cl := 0; cl < clients; cl++ {
			c := wcfg
			c.Seed = wcfg.Seed + int64(i-1)*101 + int64(cl)*10007
			g := workload.New(c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					tx := g.Next()
					if timeout > 0 {
						tx.Timeout = timeout
					}
					res := r.Run(i, tx)
					mu.Lock()
					if res.Committed() {
						stats.committed++
						stats.latency.Record(res.Latency)
					} else {
						stats.aborted++
					}
					stats.requests += uint64(res.RequestsSent)
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	stats.msgs = r.MessagesSent() - m0
	return stats
}

// dvpRunner adapts a dvp.Cluster to the runner interface.
type dvpRunner struct{ c *dvp.Cluster }

func (r dvpRunner) Run(i int, tx *txn.Txn) *txn.Result { return r.c.SiteEngine(i).Run(tx) }
func (r dvpRunner) Sites() int                         { return r.c.Sites() }
func (r dvpRunner) MessagesSent() uint64               { return r.c.NetStats().Sent }
