package harness

import (
	"time"

	"dvp/internal/baseline/replica"
	"dvp/internal/baseline/twopc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/store"
	"dvp/internal/txn"
	"dvp/internal/wal"
)

// twopcCluster assembles the traditional 2PC baseline over a simnet.
type twopcCluster struct {
	net   *simnet.Net
	sites []*twopc.Site
	logs  []*wal.GroupLog
}

func newTwopcCluster(n int, netCfg simnet.Config) (*twopcCluster, error) {
	return newTwopcClusterDelay(n, netCfg, 0)
}

// newTwopcClusterDelay adds simulated stable-storage latency to every
// force-write (prepare and decision records). Each site's log is the
// same group log over one device that a DvP site runs on, so the two
// pay alike for the same delay.
func newTwopcClusterDelay(n int, netCfg simnet.Config, appendDelay time.Duration) (*twopcCluster, error) {
	c := &twopcCluster{net: simnet.New(netCfg)}
	peers := make([]ident.SiteID, n)
	for i := range peers {
		peers[i] = ident.SiteID(i + 1)
	}
	for i := 0; i < n; i++ {
		log := wal.NewGroupLog(wal.NewSlowDevice(wal.NewMemLog(), appendDelay), wal.GroupCommitOptions{})
		c.logs = append(c.logs, log)
		s, err := twopc.New(twopc.Config{
			ID:          peers[i],
			Peers:       peers,
			Log:         log,
			DB:          store.New(),
			Endpoint:    c.net.Endpoint(peers[i]),
			LockTimeout: 40 * time.Millisecond,
			VoteTimeout: 80 * time.Millisecond,
			RetryEvery:  15 * time.Millisecond,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.sites = append(c.sites, s)
	}
	for _, s := range c.sites {
		s.Start()
	}
	return c, nil
}

func (c *twopcCluster) createItem(item ident.ItemID, total core.Value) error {
	// Full replication: every site holds the whole value.
	for _, s := range c.sites {
		if err := s.Create(item, total); err != nil {
			return err
		}
	}
	return nil
}

func (c *twopcCluster) close() {
	c.net.Close()
	for _, l := range c.logs {
		l.Close()
	}
}

func (c *twopcCluster) Run(i int, tx *txn.Txn) *txn.Result { return c.sites[i-1].Run(tx) }
func (c *twopcCluster) Sites() int                         { return len(c.sites) }
func (c *twopcCluster) MessagesSent() uint64               { return c.net.Stats().Sent }

// replicaCluster assembles the quorum / primary-copy baseline.
type replicaCluster struct {
	net   *simnet.Net
	sites []*replica.Site
}

func newReplicaCluster(n int, mode replica.Mode, netCfg simnet.Config) *replicaCluster {
	c := &replicaCluster{net: simnet.New(netCfg)}
	peers := make([]ident.SiteID, n)
	for i := range peers {
		peers[i] = ident.SiteID(i + 1)
	}
	for i := 0; i < n; i++ {
		c.sites = append(c.sites, replica.New(replica.Config{
			ID:          peers[i],
			Peers:       peers,
			Endpoint:    c.net.Endpoint(peers[i]),
			Mode:        mode,
			Timeout:     60 * time.Millisecond,
			LockTimeout: 30 * time.Millisecond,
		}))
	}
	for _, s := range c.sites {
		s.Start()
	}
	return c
}

func (c *replicaCluster) createItem(item ident.ItemID, total core.Value) {
	for _, s := range c.sites {
		s.Create(item, total)
	}
}

func (c *replicaCluster) close() { c.net.Close() }

func (c *replicaCluster) Run(i int, tx *txn.Txn) *txn.Result { return c.sites[i-1].Run(tx) }
func (c *replicaCluster) Sites() int                         { return len(c.sites) }
func (c *replicaCluster) MessagesSent() uint64               { return c.net.Stats().Sent }
