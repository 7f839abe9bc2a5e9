// Package site implements one DvP site: the single place a
// transaction executes (§2's conclusion), holding its quota store,
// stable log, per-item state, Vm channels and concurrency control.
//
// A crash loses all a site holds but its forced log records: the
// store's contents, the log's queue, the per-item state (locks,
// waiters, parked Vm, flow vectors, demand), the Vm manager and the
// clock. Restart rebuilds it all from the log via internal/recovery,
// into the same objects — with no communication, per §7.
//
// The implementation is layered, with one rule per layer about what
// may serialize on what:
//
//   - admission (admission.go): the per-item stripes are the only lock
//     for state mutation — check+lock+stamp and every enqueue+apply
//     pair serialize per data item, nothing serializes site-wide.
//   - durability (admission.go): enqueueApply is the one way any
//     record — commit, Vm create, Vm accept, checkpoint, clock
//     reservation — reaches the stable log: enqueued and applied under
//     the stripe. A commit, create, checkpoint or reservation then asks
//     for its force with waitForce after the stripe is released, and
//     nothing leaves the site before it. An acceptance asks for no
//     force: it rides the next one somebody asks for, and whoever sees
//     it stable settles it (inbound_vm.go). A Vm the waiting
//     transaction consumes is held on its waiter and accepted by that
//     transaction's commit record. A read that changes nothing and
//     consumed no Vm writes no record, and a donor with nothing to give
//     a full read answers NoShare: each waits instead for the log to be
//     stable up to the last record applied to what it read.
//   - item state (item.go): one itemState per item — Conc1 stamp,
//     no-wait lock holder, the holder's parked waiter, flow vector,
//     demand cell, parked Vm, last logged LSN — in one map per stripe,
//     guarded by that stripe and nothing else; store.Durable stays the
//     durable half, the value alone.
//   - router (router.go, inbound_*.go, retransmit.go): per-kind
//     message handlers touching only stripes, item state and atomics.
//   - lifecycle (lifecycle.go): s.mu is demoted to Start / Crash /
//     Restart / epoch transitions — the per-txn commit path and the
//     per-message handler path never acquire it (check.sh greps for
//     exactly this).
package site

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/recovery"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// Config assembles a site.
type Config struct {
	// ID is this site's identity.
	ID ident.SiteID
	// Peers lists every site in the system, including this one.
	Peers []ident.SiteID
	// Log is the site's stable log: its forced records survive crashes.
	Log wal.Log
	// DB is the site's local database, rebuilt from Log on restart.
	DB *store.Durable
	// Endpoint attaches the site to the network.
	Endpoint wire.Endpoint
	// Clock is the wall clock for timeouts and retransmission.
	Clock vclock.Clock
	// CC selects the concurrency control policy (default Conc1).
	CC cc.Policy
	// Grant decides how much quota to surrender per honored request
	// (default core.GrantExact).
	Grant core.SplitPolicy
	// RetransmitEvery is the Vm retransmission interval (default
	// 15ms — several rounds fit inside a default timeout).
	RetransmitEvery time.Duration
	// DefaultTimeout bounds transactions that don't set their own
	// (default 100ms).
	DefaultTimeout time.Duration
	// CheckpointEveryRecords arms the automatic checkpointer: once
	// the log has grown by this many records since the last
	// checkpoint, a background goroutine takes a checkpoint
	// (consistent cut under all admission stripes) and compacts the
	// log behind it. Zero leaves checkpoints manual-only.
	CheckpointEveryRecords int
	// Rebalance configures the demand-driven rebalancer: when
	// Enabled, the site tracks per-item demand, gossips it to peers
	// via DemandAdvert messages, and ships surplus quota toward the
	// largest observed deficit with Rds transfers (see demand.go).
	Rebalance RebalanceConfig
	// OnCommit, when set, observes every committed transaction
	// (metrics, serializability checking). Called outside locks; the
	// record's maps are not copied for it, so the hook must treat them
	// as read-only.
	OnCommit func(CommitInfo)
	// OnRds, when set, observes each half of every redistribution: the
	// deduct logged with a Vm's creation and the credit logged with its
	// acceptance. Each half is its own locally-serialized transaction
	// (§6), so exact serializability checking must replay both halves
	// at their stamps — a concurrent full read that misses value in
	// flight between the halves is serializable, and looks it only if
	// the checker models the window.
	OnRds func(RdsInfo)
	// Metrics, when set, registers the site's runtime metrics (txn
	// latency by label and outcome, quota-ask traffic and honor rate
	// per peer, Vm channel state) with the registry, labelled
	// site=<id>.
	Metrics *obs.Registry
	// Trace, when set, records each transaction's §5 protocol steps
	// into the ring (admit → cc-check → lock → ask → vm-accept →
	// apply → wal-flush → outcome), tags outgoing Requests and Vm with
	// a causal trace context, and records origin-tagged spans for every
	// remote hop (Rds create, Vm accept, ack retirement) so a
	// cross-site stitcher can rebuild the full span tree by TS.
	Trace *obs.Ring
	// Flight, when set, records structured protocol events (lock
	// conflicts, parked Vm, rebalancer decisions, site lifecycle) into
	// the bounded flight recorder for post-failure dumps, on Clock.
	Flight *obs.Flight
}

// CommitInfo describes a committed transaction to the OnCommit hook:
// the record the serializability checkers take (its ReadVec entries are
// FlowVec snapshots), plus two fields they do not need.
type CommitInfo struct {
	cc.CommittedTxn
	// CommitLSN is the stable-log LSN of the commit record whose
	// stability acknowledged this transaction. Durability audits check
	// it against the log: an acknowledged commit is either still in
	// the log or behind the compaction horizon, never lost.
	CommitLSN uint64
	// Recordless marks a transaction that wrote no record: it changed
	// nothing and consumed no Vm. CommitLSN is then its fence, the last
	// record applied to its items (0 if none), which it saw stable
	// before it answered.
	Recordless bool
	Label      string
}

// RdsInfo describes one half of a redistribution to the OnRds hook: a
// Vm-create deduct (negative Delta) at the sending site or a Vm-accept
// credit (positive Delta) at the receiving site, with the timestamp
// the half serializes at. Request-grant pairs consumed by the waiting
// transaction both carry the requester's TS (they serialize inside
// it); a credit accepted into a free item carries a fresh local stamp,
// strictly after everything the accepting site has seen.
type RdsInfo struct {
	TS    tstamp.TS
	Site  ident.SiteID
	Item  ident.ItemID
	Delta core.Value
}

// Stats counts site-level events. Snapshot with Site.Stats, which
// reads the metric counters the commit paths and handlers bump.
type Stats struct {
	Committed         uint64
	AbortLockConflict uint64
	AbortCCRejected   uint64
	AbortTimeout      uint64
	AbortSiteDown     uint64
	RequestsSent      uint64
	RequestsHonored   uint64
	RequestsDeclined  uint64
	VmCreated         uint64
	VmAccepted        uint64
	VmDuplicates      uint64
	Retransmissions   uint64
}

// Site is one DvP site. Run executes transactions; the network
// handler processes peer traffic; Crash/Restart drive the failure
// model.
type Site struct {
	cfg    Config
	policy cc.Policy
	grant  core.SplitPolicy

	// Volatile state, reset in place on restart (the objects are
	// shared with concurrently finishing goroutines, so they are
	// never swapped, only Reset under their own locks). stripes
	// shards what used to be a single protocol mutex: the admission
	// check+lock+stamp step and message handling serialize per data
	// item (everything touching one item maps to one stripe), so
	// transactions on disjoint items proceed concurrently. Under
	// Conc2 there is exactly one stripe, restoring the paper's §6.2
	// whole-site "processed in the order of their arrival" model that
	// its 2PL proof assumes; Conc1's per-item timestamp rule needs
	// only per-item order. Lock order: lifeMu.RLock ≺ stripes (multiple
	// stripes in ascending index order).
	// items[i] holds the volatile state of the items that map to
	// stripes[i] and is guarded by it (item.go).
	stripes []sync.Mutex
	items   []map[ident.ItemID]*itemState
	lamport *tstamp.Clock
	vm      *vmsg.Manager
	// floor is the least stamp any item has (stampOf): the largest
	// stamp at the counter of the reservation the last recovery resumed
	// from, since a stamp taken from a peer may sit at that counter
	// with a higher site id. recover sets it while the site is down,
	// before Start publishes the epoch.
	floor tstamp.TS
	// ords hands out item ordinals (admission.go: name): the highest
	// one given so far, in this epoch or in the log recovery read.
	ords atomic.Uint64

	// lifeMu fences message handling against Crash: handlers hold the
	// read side, so when Crash returns holding the write side, no
	// handler is mid-flight and the stable log is quiescent.
	lifeMu sync.RWMutex

	// accepts are the Vm acceptances credited at enqueue — of their own
	// acceptance record or of the commit record that consumed them —
	// whose records nobody has yet seen stable, in the order they were
	// made, and acceptMu guards them (inbound_vm.go). nAccepts mirrors
	// their count so that a force with nothing to settle takes no lock.
	acceptMu sync.Mutex
	accepts  []acceptedVm
	nAccepts atomic.Int32

	// obsm holds resolved metric handles; initialized once in New,
	// read-only afterwards (the handles themselves are atomic).
	obsm siteObs

	// spanCtr feeds newSpan: per-site unique span ids for the causal
	// tracing layer. Monotonic across crashes (volatile uniqueness is
	// enough — spans are observability, not protocol state).
	spanCtr atomic.Uint64

	// epochUp mirrors (epoch, up) as epoch<<1|upBit so every hot path
	// checks liveness without s.mu. Written only under s.mu (Start
	// and Crash), read lock-free. The commit paths read it under
	// lifeMu.RLock, which is what makes the check-then-append pair
	// atomic against Crash's fence.
	epochUp atomic.Uint64

	// askCursor rotates the starting peer for narrow-fanout asks.
	askCursor atomic.Uint64

	// demand holds the freshest demand advert from each peer (the
	// local per-item demand cells live in the items' state). Always
	// non-nil; the rebalancer goroutine itself runs only when
	// cfg.Rebalance.Enabled. rebalPaused gates its transfers without
	// stopping the goroutine and deliberately survives Crash/Restart.
	demand      *demandTracker
	rebalPaused atomic.Bool

	// Automatic checkpointer state: records appended since the last
	// checkpoint (bumped by enqueueApply), a one-slot kick channel the
	// threshold fires into, and a pause gate for harness barriers.
	// The checkpoint loop itself starts and stops with the site (see
	// Start/Crash), like the retransmission loop. ckptHook, when set,
	// is invoked at named stages inside Checkpoint — fault harnesses
	// use it to land crashes between the snapshot write and the
	// compaction.
	ckptRecs   atomic.Int64
	ckptKick   chan struct{}
	ckptPaused atomic.Bool
	ckptHookMu sync.Mutex
	ckptHook   func(stage string) error

	// failed is closed, after failErr is set, by the first failStop
	// (lifecycle.go).
	failOnce sync.Once
	failed   chan struct{}
	failErr  error

	// mu is the lifecycle core's lock and nothing else's: it guards
	// up, epoch and the epoch's loop stop channel and join across
	// Start/Crash/Restart/epoch transitions, and halted, which the
	// latest crash closes once it is done. The per-txn commit path
	// and the per-message handler path never acquire it (check.sh's
	// site-mutex gate greps for exactly this — the lock is taken only
	// in lifecycle.go).
	mu      sync.Mutex
	lastRec recovery.Summary
	up      bool
	epoch   uint64
	stop    chan struct{}
	loops   *sync.WaitGroup
	halted  chan struct{}
}

// New assembles a site over cfg.Log and cfg.DB, for a caller that
// decorates the log itself (Open is the assembly every site runs), and
// recovers it from the log, empty for a brand-new site. Call Start to
// attach to the network.
func New(cfg Config) (*Site, error) {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.CC == nil {
		cfg.CC = cc.New(cc.Conc1)
	}
	if cfg.Grant == nil {
		cfg.Grant = core.GrantExact{}
	}
	if cfg.RetransmitEvery <= 0 {
		cfg.RetransmitEvery = 15 * time.Millisecond
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 100 * time.Millisecond
	}
	stripes := admissionStripes
	if cfg.CC.Scheme() == cc.Conc2 {
		stripes = 1
	}
	cfg.Rebalance = cfg.Rebalance.withDefaults()
	s := &Site{
		cfg:      cfg,
		policy:   cfg.CC,
		grant:    cfg.Grant,
		stripes:  make([]sync.Mutex, stripes),
		items:    make([]map[ident.ItemID]*itemState, stripes),
		lamport:  tstamp.NewClock(cfg.ID),
		vm:       vmsg.NewManager(),
		demand:   newDemandTracker(cfg.Rebalance),
		ckptKick: make(chan struct{}, 1),
		failed:   make(chan struct{}),
	}
	for i := range s.items {
		s.items[i] = make(map[ident.ItemID]*itemState)
	}
	s.vm.SetClock(cfg.Clock)
	cfg.Flight.SetClock(cfg.Clock)
	s.initObs()
	if s.obsm.ring != nil {
		// Ack retirement completes a Vm's lifespan: record the
		// piggyback hop as a span parented on the context the Vm
		// carried out (untraced Vm retire silently).
		s.vm.SetRetireHook(func(peer ident.SiteID, v wal.VmOut) {
			if !v.Trace.Valid() {
				return
			}
			now := s.cfg.Clock.Now()
			hop := s.obsm.ring.BeginSpan(now, s.obsm.site, "vm-ack",
				v.Trace.Origin.String(), uint64(v.Trace.TS), s.newSpan(), v.Trace.Span)
			hop.Step(now, "retire", fmt.Sprintf("peer=%v seq=%d item=%s", peer, v.Seq, v.Item))
			hop.Finish(now, "acked")
		})
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open assembles the site a deployment runs: a group log over dev, with
// its metrics and flight events under site=<id>, and a fresh store,
// recovered from the log (Open sets cfg.Log and cfg.DB). The site owns
// dev: Close, or a failed Open, closes it. Call Start to attach it.
func Open(dev wal.Device, cfg Config) (*Site, error) {
	log := wal.NewGroupLog(dev, wal.GroupCommitOptions{})
	log.Instrument(cfg.Metrics, "site", cfg.ID.String())
	log.SetFlight(cfg.Flight, cfg.ID.String())
	cfg.Log, cfg.DB = log, store.New()
	s, err := New(cfg)
	if err != nil {
		log.Close()
	}
	return s, err
}

// newSpan allocates a site-unique span id for the tracing layer (the
// site id in the high bits keeps ids distinct across sites, so a
// stitched tree never aliases parents).
func (s *Site) newSpan() uint64 {
	return uint64(s.cfg.ID)<<40 | s.spanCtr.Add(1)
}

// ID returns the site's identity.
func (s *Site) ID() ident.SiteID { return s.cfg.ID }

// Stats returns a snapshot of the site's counters, read from the
// metric handles the commit paths and handlers bump (with no registry
// configured they are working orphans, so the snapshot is the same).
// Every counter is an atomic; no lock is involved, so the snapshot is
// exact whenever the site is quiescent and merely consistent-per-counter
// under load.
func (s *Site) Stats() Stats {
	o := &s.obsm
	st := Stats{
		Committed:         o.outcomes[txn.StatusCommitted].Value(),
		AbortLockConflict: o.outcomes[txn.StatusLockConflict].Value(),
		AbortCCRejected:   o.outcomes[txn.StatusCCRejected].Value(),
		AbortTimeout:      o.outcomes[txn.StatusTimeout].Value(),
		AbortSiteDown:     o.outcomes[txn.StatusSiteDown].Value(),
		Retransmissions:   o.retx.Value(),
	}
	addPeer := func(po *peerObs) {
		st.RequestsSent += po.asksSent.Value()
		st.RequestsHonored += po.honored.Value()
		for _, c := range po.declined {
			st.RequestsDeclined += c.Value()
		}
		st.VmCreated += po.vmCreated.Value()
		st.VmAccepted += po.vmAccepted.Value()
		st.VmDuplicates += po.vmDups.Value()
	}
	for _, po := range o.peers {
		addPeer(po)
	}
	addPeer(o.orphan)
	return st
}

// DB exposes the durable store (monitors, conservation checks).
func (s *Site) DB() *store.Durable { return s.cfg.DB }

// LogLastLSN reports the stable log's newest LSN (log growth metric).
func (s *Site) LogLastLSN() uint64 { return s.cfg.Log.LastLSN() }

// Log exposes the site's stable log for invariant checkers and fault
// harnesses (exactly-once audits scan it; never write to it).
func (s *Site) Log() wal.Log { return s.cfg.Log }

// VM exposes the Vm channel manager (conservation checks need the
// created-but-unaccepted sets on both sides of each channel).
func (s *Site) VM() *vmsg.Manager { return s.vm }

// peersExceptSelf returns every other site, in canonical order.
func (s *Site) peersExceptSelf() []ident.SiteID {
	out := make([]ident.SiteID, 0, len(s.cfg.Peers)-1)
	for _, p := range ident.SortSites(s.cfg.Peers) {
		if p != s.cfg.ID {
			out = append(out, p)
		}
	}
	return out
}
