package twopc

import (
	"fmt"

	"dvp/internal/ident"
	"dvp/internal/lock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// handle dispatches participant- and coordinator-side messages.
func (s *Site) handle(env *wire.Envelope) {
	s.mu.Lock()
	up := s.up
	s.mu.Unlock()
	if !up {
		return
	}
	s.clock.Observe(env.Lamport)

	switch m := env.Msg.(type) {
	case *wire.LockReq:
		s.onLockReq(env.From, m)
	case *wire.LockReply:
		s.onLockReply(m)
	case *wire.Prepare:
		s.onPrepare(env.From, m)
	case *wire.Vote:
		s.onVote(env.From, m)
	case *wire.Decision:
		s.onDecision(env.From, m)
	case *wire.DecisionAck:
		s.onDecisionAck(env.From, m)
	case *wire.ReadReq:
		s.send(env.From, &wire.ReadReply{
			Txn: m.Txn, Item: m.Item, Value: s.cfg.DB.Value(m.Item), OK: true,
		})
	}
}

// onLockReq acquires the requested lock on the local replica,
// blocking up to LockTimeout (this wait — impossible under DvP's
// no-wait rule — is where baseline convoys form).
func (s *Site) onLockReq(from ident.SiteID, m *wire.LockReq) {
	mode := lock.Exclusive
	if m.Mode == wire.LockShared {
		mode = lock.Shared
	}
	// The blocking wait must not stall the message pipeline: grant
	// attempts run on their own goroutine and reply when resolved.
	go func() {
		ok := s.locks.Lock(m.Txn.Txn(), m.Item, mode, s.cfg.LockTimeout)
		if !ok {
			s.bumpDenials()
		}
		s.send(from, &wire.LockReply{Txn: m.Txn, Item: m.Item, Granted: ok})
	}()
}

// onLockReply routes a replica's lock grant to the waiting
// coordinator.
func (s *Site) onLockReply(m *wire.LockReply) {
	s.mu.Lock()
	st, ok := s.coords[m.Txn.Txn()]
	s.mu.Unlock()
	if !ok {
		return
	}
	select {
	case st.lockCh <- m:
	default:
	}
}

// onPrepare is 2PC phase 1 at a participant: force-write the prepare
// record, enter the in-doubt window, vote yes. (A participant could
// vote no — e.g. if it noticed local trouble; with consistent
// replicas and pre-acquired locks there is nothing to refuse.)
func (s *Site) onPrepare(from ident.SiteID, m *wire.Prepare) {
	id := m.Txn.Txn()
	writes := make([]wal.Action, 0, len(m.Writes))
	for _, w := range m.Writes {
		writes = append(writes, wal.Action{Item: w.Item, Delta: w.Delta, SetTS: m.Txn})
	}
	s.mu.Lock()
	if p, ok := s.prepared[id]; ok && !p.decided {
		// Duplicate prepare: re-vote.
		s.mu.Unlock()
		s.send(from, &wire.Vote{Txn: m.Txn, Yes: true})
		return
	}
	s.mu.Unlock()

	rec := &wal.PrepareRec{Txn: m.Txn, Coord: from, Writes: writes}
	if _, err := s.cfg.Log.Append(wal.RecPrepare, rec.Encode()); err != nil {
		s.send(from, &wire.Vote{Txn: m.Txn, Yes: false})
		return
	}
	s.mu.Lock()
	s.prepared[id] = &preparedState{
		ts:     m.Txn,
		coord:  from,
		writes: writes,
		since:  s.cfg.Clock.Now(),
	}
	s.stats.InDoubtTotal++
	s.mu.Unlock()
	s.send(from, &wire.Vote{Txn: m.Txn, Yes: true})
}

// onVote is the coordinator side of phase 1 — and, for an in-doubt
// participant's re-sent vote, the termination protocol: if we have
// already decided, re-send the decision; if we never heard of the
// transaction, presumed abort.
func (s *Site) onVote(from ident.SiteID, m *wire.Vote) {
	id := m.Txn.Txn()
	s.mu.Lock()
	st, ok := s.coords[id]
	if ok && !st.decided {
		s.mu.Unlock()
		select {
		case st.voteCh <- m:
		default:
		}
		return
	}
	if ok && st.decided {
		commit := st.commit
		s.mu.Unlock()
		s.send(from, &wire.Decision{Txn: m.Txn, Commit: commit})
		return
	}
	s.mu.Unlock()
	// Not ours or long forgotten: check the log for a decision; else
	// presumed abort. Only transactions this site coordinated (its
	// site id in the TS) are answered.
	if m.Txn.Site() != s.cfg.ID {
		return
	}
	commit, found, err := s.decisionFromLog(m.Txn)
	if err != nil {
		// A log that cannot be read says nothing, presumed abort least
		// of all: the participant stays in doubt and asks again.
		return
	}
	if !found {
		commit = false // presumed abort
	}
	s.send(from, &wire.Decision{Txn: m.Txn, Commit: commit})
}

// onDecision is 2PC phase 2 at a participant: apply (on commit),
// close the in-doubt window, release locks, ack.
func (s *Site) onDecision(from ident.SiteID, m *wire.Decision) {
	id := m.Txn.Txn()
	s.mu.Lock()
	p, wasPrepared := s.prepared[id]
	if wasPrepared && p.decided {
		s.mu.Unlock()
		s.send(from, &wire.DecisionAck{Txn: m.Txn})
		return
	}
	if wasPrepared {
		p.decided = true
		s.stats.BlockedTime += s.cfg.Clock.Now().Sub(p.since)
	}
	s.mu.Unlock()

	if wasPrepared {
		rec := &wal.DecisionRec{Txn: m.Txn, Commit: m.Commit}
		lsn, err := s.cfg.Log.Append(wal.RecDecision, rec.Encode())
		if err != nil {
			return
		}
		if m.Commit {
			if _, err := s.cfg.DB.ApplyAll(lsn, p.writes); err != nil {
				panic("twopc: committed writes failed to apply: " + err.Error())
			}
		}
		s.mu.Lock()
		delete(s.prepared, id)
		s.mu.Unlock()
	}
	// Pre-prepare abort (or post-decision cleanup): drop any locks
	// the transaction holds here.
	s.locks.ReleaseAll(id)
	s.send(from, &wire.DecisionAck{Txn: m.Txn})
}

// onDecisionAck completes phase 2 at the coordinator.
func (s *Site) onDecisionAck(from ident.SiteID, m *wire.DecisionAck) {
	id := m.Txn.Txn()
	s.mu.Lock()
	st, ok := s.coords[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	st.acked[from] = true
	done := len(st.acked) >= len(s.cfg.Peers)
	if done {
		delete(s.coords, id)
	}
	s.mu.Unlock()
}

// decisionFromLog scans for a decision record (termination protocol
// after coordinator recovery). A scan that fails, or a decision record
// that does not decode, is an error, not "no decision".
func (s *Site) decisionFromLog(ts interface{ Txn() ident.TxnID }) (commit, found bool, err error) {
	want := ts.Txn()
	err = s.cfg.Log.Scan(1, func(r wal.Record) error {
		if r.Kind != wal.RecDecision {
			return nil
		}
		rec, err := wal.DecodeDecision(r.Data)
		if err != nil {
			return fmt.Errorf("twopc: LSN %d: %w", r.LSN, err)
		}
		if rec.Txn.Txn() == want {
			commit, found = rec.Commit, true
		}
		return nil
	})
	return commit, found, err
}

// retryLoop drives decision retransmission (coordinator side) and the
// in-doubt termination protocol (participant side re-sends its vote,
// prompting the coordinator to repeat the decision).
func (s *Site) retryLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-s.cfg.Clock.After(s.cfg.RetryEvery):
		}
		s.mu.Lock()
		type resend struct {
			to  ident.SiteID
			msg wire.Msg
		}
		var out []resend
		for _, st := range s.coords {
			if !st.decided {
				continue
			}
			for _, p := range s.peers() {
				if !st.acked[p] {
					out = append(out, resend{p, &wire.Decision{Txn: st.ts, Commit: st.commit}})
				}
			}
		}
		for _, p := range s.prepared {
			if !p.decided {
				out = append(out, resend{p.coord, &wire.Vote{Txn: p.ts, Yes: true}})
			}
		}
		s.mu.Unlock()
		for _, r := range out {
			s.send(r.to, r.msg)
		}
	}
}
