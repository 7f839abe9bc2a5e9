package dvp

import (
	"fmt"
	"path/filepath"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/recovery"
	"dvp/internal/simnet"
	"dvp/internal/site"
	"dvp/internal/wal"
)

// Cluster is a set of DvP sites over a fault-injectable simulated
// network. All methods are safe for concurrent use.
type Cluster struct {
	net    *simnet.Net
	sites  []*site.Site
	reg    *obs.Registry
	traces *obs.Ring
	flight *obs.Flight
}

// NewCluster assembles and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 4
	}
	if cfg.CC == 0 {
		cfg.CC = Conc1
	}
	if cfg.Grant == nil {
		cfg.Grant = GrantExact
	}
	c := &Cluster{
		reg:    obs.NewRegistry(),
		traces: obs.NewRing(1024),
		net: simnet.New(simnet.Config{
			Seed:            cfg.Seed,
			MinDelay:        cfg.MinDelay,
			MaxDelay:        cfg.MaxDelay,
			LossProb:        cfg.LossProb,
			DupProb:         cfg.DupProb,
			OrderPreserving: cfg.OrderPreserving,
		}),
	}
	if cfg.FlightBuf > 0 {
		c.flight = obs.NewFlight(cfg.FlightBuf)
	}
	peers := make([]ident.SiteID, cfg.Sites)
	for i := range peers {
		peers[i] = ident.SiteID(i + 1)
	}
	for i := 1; i <= cfg.Sites; i++ {
		var dev wal.Device = wal.NewMemLog()
		if cfg.FileLogDir != "" {
			fl, err := wal.OpenFileLog(filepath.Join(cfg.FileLogDir, fmt.Sprintf("site%d.wal", i)), wal.FileLogOptions{Sync: true})
			if err != nil {
				c.Close()
				return nil, err
			}
			dev = fl
		}
		sc := site.Config{
			ID:                     ident.SiteID(i),
			Peers:                  peers,
			Endpoint:               c.net.Endpoint(ident.SiteID(i)),
			CC:                     cc.New(cfg.CC),
			Grant:                  cfg.Grant,
			RetransmitEvery:        cfg.RetransmitEvery,
			DefaultTimeout:         cfg.DefaultTimeout,
			CheckpointEveryRecords: cfg.CheckpointEveryRecords,
			Metrics:                c.reg,
			Trace:                  c.traces,
			Flight:                 c.flight,
			Rebalance:              cfg.Rebalance,
			OnCommit:               cfg.OnCommit,
			OnRds:                  cfg.OnRds,
		}
		// Each site jitters from its own stream: lockstep rounds are
		// exactly what the jitter exists to break.
		sc.Rebalance.Seed = cfg.Seed*1000003 + int64(i)*7919 + 1
		// The device is paced: simulated forces serialize, so commit
		// cost under concurrency is realistic, and one force covers a
		// whole group, as the real fsync path does.
		s, err := site.Open(wal.NewSlowDevice(dev, cfg.LogAppendDelay), sc)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}
	for _, s := range c.sites {
		s.Start()
	}
	return c, nil
}

// Close shuts the cluster down. In-flight messages are dropped.
func (c *Cluster) Close() {
	for _, s := range c.sites {
		s.Close()
	}
	c.net.Close()
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.sites) }

// checkSite validates a 1-based site index.
func (c *Cluster) checkSite(i int) *site.Site {
	if i < 1 || i > len(c.sites) {
		panic(fmt.Sprintf("dvp: site index %d out of range 1..%d", i, len(c.sites)))
	}
	return c.sites[i-1]
}

// --- item creation ----------------------------------------------------------

// CreateItem splits total evenly across all sites (the paper's §3
// initial distribution: 100 seats over 4 sites → 25 each).
func (c *Cluster) CreateItem(item string, total Value) error {
	return c.CreateItemShares(item, core.EvenShares(total, len(c.sites)))
}

// CreateItemShares installs explicit per-site quotas (one per site),
// each a placement record in its site's log, so a restart rebuilds it.
// An item a site holds already is an error.
func (c *Cluster) CreateItemShares(item string, shares []Value) error {
	if len(shares) != len(c.sites) {
		return fmt.Errorf("dvp: %d shares for %d sites", len(shares), len(c.sites))
	}
	for i, s := range c.sites {
		_, skipped, err := s.Place([]wal.Action{{Item: toItem(item), Delta: shares[i]}})
		if err != nil {
			return err
		}
		if len(skipped) != 0 {
			return fmt.Errorf("dvp: item %q already exists at site %d", item, i+1)
		}
	}
	return nil
}

// CreateItemWeighted splits total proportionally to per-site demand
// weights.
func (c *Cluster) CreateItemWeighted(item string, total Value, weights []float64) error {
	return c.CreateItemShares(item, core.WeightedShares(total, weights))
}

// SendValue runs a redistribution-only (Rds) transaction (paper §5):
// move amount of item from site `from` to site `to` without changing
// the item's total. The transfer rides a Virtual Message, so it
// survives loss, partitions, and crashes of either site. For
// redistribution ahead of demand, see Config.Rebalance.
func (c *Cluster) SendValue(item string, from, to int, amount Value) error {
	if to < 1 || to > len(c.sites) {
		return fmt.Errorf("dvp: site index %d out of range", to)
	}
	return c.checkSite(from).SendValue(toItem(item), ident.SiteID(to), amount)
}

// --- failure injection --------------------------------------------------------

// PartitionGroups splits the network into groups of 1-based site
// indices; unlisted sites are isolated.
func (c *Cluster) PartitionGroups(groups ...[]int) {
	gs := make([][]ident.SiteID, len(groups))
	for i, g := range groups {
		for _, s := range g {
			gs[i] = append(gs[i], ident.SiteID(s))
		}
	}
	c.net.Partition(gs...)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.net.Heal() }

// SetLink fails (up=false) or restores the directed link a→b.
func (c *Cluster) SetLink(a, b int, up bool) {
	c.net.SetLink(ident.SiteID(a), ident.SiteID(b), up)
}

// SetLoss adjusts the random message-loss probability at runtime —
// fault schedules flap lossiness mid-run.
func (c *Cluster) SetLoss(p float64) { c.net.SetLoss(p) }

// SetDup adjusts the message-duplication probability at runtime.
func (c *Cluster) SetDup(p float64) { c.net.SetDup(p) }

// Crash kills site i as a process kill would: everything but its
// forced log records is lost, the store's contents and the log's queue
// included. In-progress transactions at the site abort with SiteDown.
func (c *Cluster) Crash(i int) { c.checkSite(i).Crash() }

// Restart rebuilds site i from its stable log — independently, with
// no communication — and rejoins it to the network.
func (c *Cluster) Restart(i int) error { return c.checkSite(i).Restart() }

// SiteUp reports whether site i is running.
func (c *Cluster) SiteUp(i int) bool { return c.checkSite(i).Up() }

// --- introspection ------------------------------------------------------------

// Quota returns site i's local share of item (N_i).
func (c *Cluster) Quota(i int, item string) Value {
	return c.checkSite(i).DB().Value(toItem(item))
}

// GlobalTotal computes N = Σ N_i + Σ in-flight Vm for item: the
// conserved quantity. Only meaningful at quiescent points (use
// Quiesce in tests).
func (c *Cluster) GlobalTotal(item string) Value {
	id := toItem(item)
	var sum Value
	for _, s := range c.sites {
		sum += s.DB().Value(id)
	}
	for _, si := range c.sites {
		for _, sj := range c.sites {
			if si == sj {
				continue
			}
			for _, v := range si.VM().PendingTo(sj.ID()) {
				if v.Item == id && !sj.VM().Accepted(si.ID(), v.Seq) {
					sum += v.Amount
				}
			}
		}
	}
	return sum
}

// Quiesce blocks until all in-flight network traffic has drained and
// no Vm awaits retransmission, or the deadline passes.
func (c *Cluster) Quiesce(deadline time.Duration) {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		c.net.Quiesce()
		pending := 0
		for _, s := range c.sites {
			pending += len(s.VM().PendingAll())
		}
		if pending == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// SetRebalancePaused pauses (true) or resumes (false) every site's
// demand-driven rebalancer. The flag survives Crash/Restart — fault
// harnesses pause rebalancing around quiescent invariant checks even
// while crash-cycling sites. No-op when Config.Rebalance is off.
func (c *Cluster) SetRebalancePaused(p bool) {
	for _, s := range c.sites {
		s.SetRebalancePaused(p)
	}
}

// SiteStats returns site i's event counters.
func (c *Cluster) SiteStats(i int) site.Stats { return c.checkSite(i).Stats() }

// NetStats returns the network's counters.
func (c *Cluster) NetStats() simnet.Stats { return c.net.Stats() }

// Checkpoint writes a checkpoint record at site i, bounding its
// future recovery scans.
func (c *Cluster) Checkpoint(i int) error { return c.checkSite(i).Checkpoint() }

// SetCheckpointPaused pauses (true) or resumes (false) every site's
// automatic checkpointer, joining any in-flight checkpoint first.
// Fault harnesses pause it across barrier audits that compare the log
// against durable state. No-op when the checkpoint thresholds are off.
func (c *Cluster) SetCheckpointPaused(p bool) {
	for _, s := range c.sites {
		s.SetCheckpointPaused(p)
	}
}

// RecoverySummary describes what a site's most recent recovery pass
// did. NetworkCalls is always zero: recovery is independent (§7).
type RecoverySummary = recovery.Summary

// LastRecovery reports site i's most recent recovery summary.
func (c *Cluster) LastRecovery(i int) RecoverySummary { return c.checkSite(i).LastRecovery() }

// LogRecords returns the number of stable-log records at site i.
func (c *Cluster) LogRecords(i int) uint64 { return c.checkSite(i).LogLastLSN() }

// Net exposes the underlying simulated network for advanced fault
// scenarios (kind-selective filters, traces).
func (c *Cluster) Net() *simnet.Net { return c.net }

// SiteEngine exposes the underlying site engine for 1-based index i —
// invariant checkers need its log, store and Vm channel state (same
// spirit as Net; never drive transactions through it directly, use At).
func (c *Cluster) SiteEngine(i int) *site.Site { return c.checkSite(i) }

// GroupLog returns site i's group-commit pipeline: every site's log is
// one. Chaos schedules hook its flush windows; invariant checkers audit
// its waiter/durable-LSN boundary.
func (c *Cluster) GroupLog(i int) *wal.GroupLog {
	return c.checkSite(i).Log().(*wal.GroupLog)
}

// Metrics returns the cluster-wide metrics registry. Every site
// registers its series here (distinguished by the site=... label);
// render them with Metrics().Render() or WritePrometheus.
func (c *Cluster) Metrics() *obs.Registry { return c.reg }

// Traces returns the cluster-wide transaction trace ring: the last
// 1024 transactions across all sites, in completion order.
func (c *Cluster) Traces() *obs.Ring { return c.traces }

// Flight returns the cluster-wide flight recorder, or nil when
// Config.FlightBuf is zero.
func (c *Cluster) Flight() *obs.Flight { return c.flight }
