// Package twopc implements the traditional distributed database the
// paper argues against (§1–§2): every data item fully replicated at
// every site, strict two-phase locking with blocking lock waits
// (read-one / write-all), and atomic commitment by two-phase commit
// with presumed abort.
//
// The essential property the experiments measure is the one Skeen's
// results make unavoidable: a participant that has force-written its
// prepare record and lost contact with the coordinator is *in doubt* —
// it must hold its exclusive locks until a decision arrives. Under a
// network partition or coordinator crash this blocks, serially
// stalling every later transaction that touches the same items. DvP
// exists to avoid exactly this window.
//
// The implementation is a complete protocol, not a mock: force-written
// prepare/decision records, decision retransmission, a vote-resend
// termination protocol for in-doubt participants, and §7-style
// recovery that re-enters the in-doubt state from the log.
package twopc

import (
	"sync"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/lock"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// Config assembles a baseline site.
type Config struct {
	ID       ident.SiteID
	Peers    []ident.SiteID
	Log      wal.Log
	DB       *store.Durable // this site's replicas
	Endpoint wire.Endpoint
	Clock    vclock.Clock
	// LockTimeout bounds waits in the blocking lock manager (the
	// conventional deadlock resolution). Default 50ms.
	LockTimeout time.Duration
	// VoteTimeout bounds the coordinator's wait for lock replies and
	// votes. Default 100ms.
	VoteTimeout time.Duration
	// RetryEvery paces decision retransmission and the in-doubt
	// termination protocol. Default 20ms.
	RetryEvery time.Duration
	// OnCommit observes committed transactions (metrics).
	OnCommit func(ts tstamp.TS)
}

// Stats counts baseline events.
type Stats struct {
	Committed    uint64
	Aborted      uint64
	InDoubtNow   uint64        // participants currently blocked in doubt
	InDoubtTotal uint64        // in-doubt episodes entered
	BlockedTime  time.Duration // cumulative in-doubt duration (resolved episodes)
	LockDenials  uint64
	VoteTimeouts uint64
}

// Site is one baseline site: coordinator for its own transactions,
// participant for everyone's.
type Site struct {
	cfg   Config
	clock *tstamp.Clock
	locks *lock.Queue

	mu       sync.Mutex
	up       bool
	stop     chan struct{}
	coords   map[ident.TxnID]*coordState
	prepared map[ident.TxnID]*preparedState
	stats    Stats
}

// coordState tracks one transaction this site coordinates.
type coordState struct {
	ts      tstamp.TS
	writes  []wal.Action
	lockCh  chan *wire.LockReply
	voteCh  chan *wire.Vote
	decided bool
	commit  bool
	acked   map[ident.SiteID]bool
}

// preparedState tracks one in-doubt participation.
type preparedState struct {
	ts      tstamp.TS
	coord   ident.SiteID
	writes  []wal.Action
	since   time.Time
	decided bool
}

// New assembles a baseline site and recovers from its log.
func New(cfg Config) (*Site, error) {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 50 * time.Millisecond
	}
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 100 * time.Millisecond
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 20 * time.Millisecond
	}
	s := &Site{
		cfg:      cfg,
		clock:    tstamp.NewClock(cfg.ID),
		locks:    lock.NewQueue(cfg.Clock),
		coords:   make(map[ident.TxnID]*coordState),
		prepared: make(map[ident.TxnID]*preparedState),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the site identity.
func (s *Site) ID() ident.SiteID { return s.cfg.ID }

// DB exposes the replica store.
func (s *Site) DB() *store.Durable { return s.cfg.DB }

// Stats snapshots the counters, folding in currently-open in-doubt
// time so "blocked" is visible while it is happening.
func (s *Site) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	now := s.cfg.Clock.Now()
	for _, p := range s.prepared {
		if !p.decided {
			out.InDoubtNow++
			out.BlockedTime += now.Sub(p.since)
		}
	}
	return out
}

// Start attaches to the network and begins the retry loop.
func (s *Site) Start() {
	s.mu.Lock()
	if s.up {
		s.mu.Unlock()
		return
	}
	s.up = true
	stop := make(chan struct{})
	s.stop = stop
	s.mu.Unlock()
	s.cfg.Endpoint.SetHandler(s.handle)
	_ = s.cfg.Endpoint.Open()
	go s.retryLoop(stop)
}

// Crash kills the site: everything but its log is lost — lock table,
// coordinator windows and, at Restart, the replicas' contents, which
// recovery rebuilds from the log.
func (s *Site) Crash() {
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return
	}
	s.up = false
	close(s.stop)
	s.stop = nil
	s.coords = make(map[ident.TxnID]*coordState)
	s.prepared = make(map[ident.TxnID]*preparedState)
	s.mu.Unlock()
	s.cfg.Endpoint.Close()
	s.locks.Clear()
}

// Restart recovers from the log and rejoins.
func (s *Site) Restart() error {
	if err := s.recover(); err != nil {
		return err
	}
	s.Start()
	return nil
}

// recover rebuilds the site from its log alone, in one pass: the
// replicas start empty, and their placements and committed write sets
// are re-applied in log order — a write set at its first commit
// decision, which its prepare precedes and its locks kept ahead of
// every conflicting prepare — so a decrement never lands before the
// increment it needs.
// Prepared-but-undecided participations re-enter the in-doubt state
// with their locks re-acquired — the blocking window survives crashes,
// which is rather the point.
func (s *Site) recover() error {
	s.clock.Reset()
	s.cfg.DB.RestoreCheckpoint(nil)
	preps := make(map[ident.TxnID]*wal.PrepareRec)
	decided := make(map[ident.TxnID]bool)
	err := s.cfg.Log.Scan(1, func(r wal.Record) error {
		switch r.Kind {
		case wal.RecCommit: // a placement
			rec, err := wal.DecodeCommit(r.Data)
			if err != nil {
				return err
			}
			_, err = s.cfg.DB.ApplyAll(r.LSN, rec.Actions)
			return err
		case wal.RecPrepare:
			rec, err := wal.DecodePrepare(r.Data)
			if err != nil {
				return err
			}
			preps[rec.Txn.Txn()] = rec
			s.clock.Observe(rec.Txn)
		case wal.RecDecision:
			rec, err := wal.DecodeDecision(r.Data)
			if err != nil {
				return err
			}
			s.clock.Observe(rec.Txn)
			id := rec.Txn.Txn()
			if p := preps[id]; p != nil && rec.Commit && !decided[id] {
				_, err = s.cfg.DB.ApplyAll(r.LSN, p.Writes)
			}
			decided[id] = true // an abort may precede the prepare
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	for id, p := range preps {
		if decided[id] {
			continue
		}
		// In doubt across the crash: re-lock and wait for a decision.
		s.mu.Lock()
		s.prepared[id] = &preparedState{
			ts:     p.Txn,
			coord:  p.Coord,
			writes: p.Writes,
			since:  s.cfg.Clock.Now(),
		}
		s.stats.InDoubtTotal++
		s.mu.Unlock()
		for _, w := range p.Writes {
			s.locks.Lock(id, w.Item, lock.Exclusive, 0)
		}
	}
	return nil
}

// Create places a replica of item holding v, once per item: a commit
// record in the log, applied once stable, which recovery replays like a
// decided write set.
func (s *Site) Create(item ident.ItemID, v core.Value) error {
	rec := &wal.CommitRec{Actions: []wal.Action{{Item: item, Delta: v}}}
	lsn, err := s.cfg.Log.Append(wal.RecCommit, rec.Encode())
	if err == nil {
		_, err = s.cfg.DB.ApplyAll(lsn, rec.Actions)
	}
	return err
}

// peers returns all sites (every site replicates every item).
func (s *Site) peers() []ident.SiteID { return ident.SortSites(s.cfg.Peers) }

func (s *Site) send(to ident.SiteID, msg wire.Msg) {
	env := &wire.Envelope{To: to, Lamport: tstamp.Make(s.clock.Current(), s.cfg.ID), Msg: msg}
	_ = s.cfg.Endpoint.Send(env)
}

// Value reads this site's replica of item (monitors/tests).
func (s *Site) Value(item ident.ItemID) core.Value { return s.cfg.DB.Value(item) }

// abortResult tallies and builds an aborted result.
func (s *Site) abortResult(res *txn.Result, status txn.Status, start time.Time) *txn.Result {
	s.mu.Lock()
	s.stats.Aborted++
	s.mu.Unlock()
	res.Status = status
	res.Latency = s.cfg.Clock.Now().Sub(start)
	return res
}
