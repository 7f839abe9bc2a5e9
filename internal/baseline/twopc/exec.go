package twopc

import (
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/lock"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// Run executes one transaction with this site as 2PC coordinator:
// lock all replicas of every written item (write-all) and the local
// replica of every read item (read-one), compute, then run two-phase
// commit across all sites.
func (s *Site) Run(t *txn.Txn) *txn.Result {
	start := s.cfg.Clock.Now()
	res := &txn.Result{}

	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		res.Status = txn.StatusSiteDown
		return res
	}
	s.mu.Unlock()

	ts := s.clock.Next()
	res.TS = ts
	id := ts.Txn()
	writeItems := make([]ident.ItemID, 0, len(t.Ops))
	seen := map[ident.ItemID]bool{}
	for _, op := range t.Ops {
		if !seen[op.Item] {
			seen[op.Item] = true
			writeItems = append(writeItems, op.Item)
		}
	}
	writeItems = ident.SortItems(writeItems)

	st := &coordState{
		ts:     ts,
		lockCh: make(chan *wire.LockReply, len(s.cfg.Peers)*4),
		voteCh: make(chan *wire.Vote, len(s.cfg.Peers)*2),
		acked:  make(map[ident.SiteID]bool),
	}
	s.mu.Lock()
	s.coords[id] = st
	s.mu.Unlock()
	// Coordinator state is cleaned up by the ack collector (or here
	// on early abort paths via the deferred check below).

	// Phase 0a: local read locks (read-one).
	for _, item := range ident.SortItems(t.Reads) {
		if !s.locks.Lock(id, item, lock.Shared, s.cfg.LockTimeout) {
			s.locks.ReleaseAll(id)
			s.dropCoord(id)
			return s.abortResult(res, txn.StatusLockConflict, start)
		}
	}

	// Phase 0b: exclusive locks on every replica of written items.
	// The local replica locks directly; remote replicas via LockReq.
	needed := 0
	for _, item := range writeItems {
		if !s.locks.Lock(id, item, lock.Exclusive, s.cfg.LockTimeout) {
			s.locks.ReleaseAll(id)
			s.dropCoord(id)
			s.bumpDenials()
			return s.abortResult(res, txn.StatusLockConflict, start)
		}
		for _, p := range s.peers() {
			if p == s.cfg.ID {
				continue
			}
			s.send(p, &wire.LockReq{Txn: ts, Item: item, Mode: wire.LockExclusive})
			res.RequestsSent++
			needed++
		}
	}
	granted := 0
	deadline := s.cfg.Clock.After(s.cfg.VoteTimeout)
	for granted < needed {
		select {
		case rep := <-st.lockCh:
			if !rep.Granted {
				s.abortEverywhere(st, id)
				s.bumpDenials()
				return s.abortResult(res, txn.StatusLockConflict, start)
			}
			granted++
		case <-deadline:
			s.abortEverywhere(st, id)
			s.bumpTimeouts()
			return s.abortResult(res, txn.StatusTimeout, start)
		}
	}

	// Compute against the (consistent, all-locked) local replicas.
	working := make(map[ident.ItemID]core.Value)
	for _, item := range writeItems {
		working[item] = s.cfg.DB.Value(item)
	}
	for _, op := range t.Ops {
		nv, ok := op.Op.Apply(working[op.Item])
		if !ok {
			s.abortEverywhere(st, id)
			return s.abortResult(res, txn.StatusTimeout, start)
		}
		working[op.Item] = nv
	}
	reads := make(map[ident.ItemID]core.Value, len(t.Reads))
	for _, item := range t.Reads {
		reads[item] = s.cfg.DB.Value(item)
	}
	res.Reads = reads

	deltas := t.Deltas()
	writes := make([]wal.Action, 0, len(deltas))
	for _, item := range writeItems {
		if d := deltas[item]; d != 0 {
			writes = append(writes, wal.Action{Item: item, Delta: d, SetTS: ts})
		}
	}
	st.writes = writes

	// Read-only fast path: nothing to make atomic; release and done.
	if len(writes) == 0 {
		s.abortEverywhere(st, id) // releases remote and local locks
		s.mu.Lock()
		s.stats.Committed++
		s.mu.Unlock()
		res.Status = txn.StatusCommitted
		res.Latency = s.cfg.Clock.Now().Sub(start)
		if s.cfg.OnCommit != nil {
			s.cfg.OnCommit(ts)
		}
		return res
	}

	// Phase 1: prepare. Every site (including us) force-writes a
	// prepare record and votes.
	for _, p := range s.peers() {
		s.send(p, &wire.Prepare{Txn: ts, Writes: toItemDeltas(writes)})
		res.RequestsSent++
	}
	votes := 0
	deadline = s.cfg.Clock.After(s.cfg.VoteTimeout)
	for votes < len(s.cfg.Peers) {
		select {
		case v := <-st.voteCh:
			if !v.Yes {
				s.decide(st, id, false)
				return s.abortResult(res, txn.StatusTimeout, start)
			}
			votes++
		case <-deadline:
			// Coordinator times out before deciding: presumed
			// abort. Participants that already prepared are now in
			// doubt until our abort reaches them.
			s.decide(st, id, false)
			s.bumpTimeouts()
			return s.abortResult(res, txn.StatusTimeout, start)
		}
	}

	// Phase 2: decide commit (force-written) and distribute. A commit
	// decision the log did not take is an abort, and the coordinator,
	// whose log has failed, answers as DvP's fail-stopped site does.
	if !s.decide(st, id, true) {
		return s.abortResult(res, txn.StatusSiteDown, start)
	}
	s.mu.Lock()
	s.stats.Committed++
	s.mu.Unlock()
	if s.cfg.OnCommit != nil {
		s.cfg.OnCommit(ts)
	}
	res.Status = txn.StatusCommitted
	res.Latency = s.cfg.Clock.Now().Sub(start)
	return res
}

// decide force-writes the decision and starts distributing it; the
// retry loop keeps resending until every participant acks. It reports
// whether the decision is commit: a commit decision whose record did
// not become stable is distributed as an abort instead, which presumed
// abort lets go unlogged.
func (s *Site) decide(st *coordState, id ident.TxnID, commit bool) bool {
	rec := &wal.DecisionRec{Txn: st.ts, Commit: commit}
	if _, err := s.cfg.Log.Append(wal.RecDecision, rec.Encode()); err != nil {
		commit = false
	}
	s.mu.Lock()
	st.decided = true
	st.commit = commit
	s.mu.Unlock()
	for _, p := range s.peers() {
		s.send(p, &wire.Decision{Txn: st.ts, Commit: commit})
	}
	// Local lock release happens when our own participant side
	// processes the Decision (uniform path).
	return commit
}

// abortEverywhere releases local locks and tells peers to drop any
// locks/prepare state for the transaction (pre-decision abort).
func (s *Site) abortEverywhere(st *coordState, id ident.TxnID) {
	s.locks.ReleaseAll(id)
	for _, p := range s.peers() {
		if p == s.cfg.ID {
			continue
		}
		s.send(p, &wire.Decision{Txn: st.ts, Commit: false})
	}
	s.dropCoord(id)
}

func (s *Site) dropCoord(id ident.TxnID) {
	s.mu.Lock()
	delete(s.coords, id)
	s.mu.Unlock()
}

func (s *Site) bumpDenials() {
	s.mu.Lock()
	s.stats.LockDenials++
	s.mu.Unlock()
}

func (s *Site) bumpTimeouts() {
	s.mu.Lock()
	s.stats.VoteTimeouts++
	s.mu.Unlock()
}

func toItemDeltas(ws []wal.Action) []wire.ItemDelta {
	out := make([]wire.ItemDelta, 0, len(ws))
	for _, w := range ws {
		out = append(out, wire.ItemDelta{Item: w.Item, Delta: w.Delta})
	}
	return out
}
