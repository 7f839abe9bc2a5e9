// Package dvp is a Go implementation of Data-value Partitioning and
// Virtual Messages (Soparkar & Silberschatz, PODS 1990): a distributed
// transaction system for partitionable quantities — seats, money,
// stock — that stays available and non-blocking through network
// partitions, message loss, and site crashes.
//
// Instead of replicating a value N at every site, DvP splits N into
// per-site quotas N_1 + … + N_n = N. Every transaction runs at exactly
// one site against local quota; when the local quota is inadequate the
// site asks peers to transfer some of theirs, carried by Virtual
// Messages — transfers anchored in stable logs at both ends so no
// value is ever lost or duplicated, whatever the network does. There
// is no commit protocol spanning sites, hence nothing to block.
//
// # Quick start
//
//	c, err := dvp.NewCluster(dvp.Config{Sites: 4})
//	if err != nil { ... }
//	defer c.Close()
//	c.CreateItem("flight/A", 100) // 25 per site
//
//	res := c.At(1).Reserve("flight/A", 3) // runs entirely at site 1
//	if res.Committed() { ... }
//
//	c.PartitionGroups([]int{1, 2}, []int{3, 4}) // split brain
//	c.At(3).Reserve("flight/A", 2)              // still works
//
// The cluster runs in-process over a fault-injecting simulated network
// (loss, duplication, reordering, delay, partitions, crashes), so the
// failure behaviour is exercisable from tests and examples. The same
// site engine also runs over real TCP via cmd/dvpnode.
package dvp

import (
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/site"
	"dvp/internal/txn"
)

// Scheme selects the concurrency control scheme.
type Scheme = cc.Scheme

// Concurrency control schemes (paper §6).
const (
	// Conc1 is timestamp-based: a transaction may lock a value only
	// if its timestamp exceeds the value's (§6.1). The default.
	Conc1 = cc.Conc1
	// Conc2 is strict two-phase locking, sound under order-
	// preserving links (§6.2). Pair with Config.OrderPreserving.
	Conc2 = cc.Conc2
)

// AskPolicy chooses which peers receive redistribution requests.
type AskPolicy = txn.AskPolicy

// Ask policies.
const (
	// AskAll broadcasts requests to every peer (default).
	AskAll = txn.AskAll
	// AskOne asks a single rotating peer.
	AskOne = txn.AskOne
	// AskTwo asks two rotating peers.
	AskTwo = txn.AskTwo
)

// GrantPolicy decides how much quota a site surrenders per honored
// request.
type GrantPolicy = core.SplitPolicy

// Grant policies.
var (
	// GrantExact surrenders exactly what was asked (default).
	GrantExact GrantPolicy = core.GrantExact{}
	// GrantAll surrenders the whole holding.
	GrantAll GrantPolicy = core.GrantAll{}
	// GrantHalfExcess surrenders the request plus half the surplus.
	GrantHalfExcess GrantPolicy = core.GrantHalfExcess{}
)

// Status is a transaction outcome.
type Status = txn.Status

// Transaction outcomes. Every transaction reaches one of these within
// its timeout — the system is non-blocking by construction.
const (
	// Committed: the commit record is stable; effects are durable.
	Committed = txn.StatusCommitted
	// LockConflict: a needed local value was locked (no-wait abort).
	LockConflict = txn.StatusLockConflict
	// CCRejected: the concurrency control scheme refused the lock
	// (Conc1 timestamp admission); retry draws a fresher timestamp.
	CCRejected = txn.StatusCCRejected
	// Timeout: required value did not arrive in time (§5 step 3).
	Timeout = txn.StatusTimeout
	// SiteDown: the executing site crashed before commit.
	SiteDown = txn.StatusSiteDown
)

// Result reports a transaction's outcome.
type Result = txn.Result

// Config assembles a Cluster.
type Config struct {
	// Sites is the number of sites (≥ 1). Default 4.
	Sites int
	// CC selects the concurrency scheme. Default Conc1.
	CC Scheme
	// Grant is the quota-surrender policy. Default GrantExact.
	Grant GrantPolicy
	// DefaultTimeout bounds transactions that don't set their own.
	// Default 100ms.
	DefaultTimeout time.Duration
	// RetransmitEvery paces Vm retransmission. Default 15ms. Sweeps
	// toward an unresponsive peer double their gap from it up to
	// vmsg.RetransmitCap times it, and reset on the first cumulative
	// ack that advances the channel.
	RetransmitEvery time.Duration

	// Seed drives network fault sampling (0 means 1).
	Seed int64
	// MinDelay/MaxDelay bound simulated message latency.
	MinDelay, MaxDelay time.Duration
	// LossProb / DupProb inject message loss and duplication.
	LossProb, DupProb float64
	// OrderPreserving makes links FIFO (required for Conc2).
	OrderPreserving bool

	// FileLogDir, when set, backs each site's stable log with a real
	// CRC-framed file under this directory instead of memory; every
	// force-write fsyncs it.
	FileLogDir string
	// LogAppendDelay simulates stable-storage force-write latency per
	// flush (e.g. 200µs ≈ SSD fsync). It makes commit cost a wait
	// rather than CPU, so concurrency behaviour is realistic
	// regardless of host core count. Each site's log is a group log,
	// so one delay covers a whole batch — the batching win the real
	// fsync gives.
	LogAppendDelay time.Duration

	// CheckpointEveryRecords arms each site's automatic checkpointer:
	// once the site's log has grown by this many records since its
	// last checkpoint, a background goroutine snapshots durable state
	// into a checkpoint record and compacts the log behind it, keeping
	// restart time bounded by the suffix. Zero means checkpoints
	// happen only via Cluster.Checkpoint.
	CheckpointEveryRecords int

	// FlightBuf sizes the cluster-wide flight recorder, a bounded ring
	// of structured events (lock conflicts, rebalancer decisions,
	// group-commit flushes, demand adverts, crash/recovery edges) that
	// fault harnesses dump when an invariant breaks (0 disables).
	FlightBuf int

	// Rebalance configures the demand-driven rebalancer at every
	// site: each site tracks per-item demand (EWMA of consumption
	// plus deficit aborts), gossips it to peers over the wire, and
	// ships surplus quota toward the largest observed deficit with
	// Rds transfers. Set Enabled to turn it on; the Seed field is
	// overridden per site (derived from Config.Seed) so sites jitter
	// independently.
	Rebalance RebalanceOptions

	// OnCommit observes every committed transaction (metrics,
	// serializability checking). Called from transaction goroutines;
	// the record's maps are the site's own, so treat them as read-only.
	OnCommit func(CommitInfo)

	// OnRds observes each half of every redistribution — the deduct
	// logged with a Vm's creation and the credit logged with its
	// acceptance, each with the timestamp it serializes at (§6 treats
	// both as transactions). Exact serializability checking replays
	// these alongside OnCommit's transactions; see RdsInfo.
	OnRds func(RdsInfo)
}

// CommitInfo describes one committed transaction to the OnCommit hook:
// the serializability checker's record (cc.CommittedTxn: site, stamp,
// deltas, full reads, value-flow vectors) plus the commit record's LSN
// and the transaction's label.
type CommitInfo = site.CommitInfo

// RdsInfo describes one redistribution half to the OnRds hook: Delta
// is negative for the sender's deduct, positive for the receiver's
// credit, and TS is the timestamp that half serializes at.
type RdsInfo = site.RdsInfo

// RebalanceOptions tunes the demand-driven rebalancer (see
// site.RebalanceConfig for field semantics: Enabled, Interval,
// HalfLife, AdvertStale, Seed).
type RebalanceOptions = site.RebalanceConfig

// Value is a quantity (Γ in the paper: non-negative int64).
type Value = core.Value

func toItem(item string) ident.ItemID { return ident.ItemID(item) }
