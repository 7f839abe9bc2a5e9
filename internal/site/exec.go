package site

import (
	"fmt"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// inlineItems is the access-set width whose folded form lives on Run's
// stack. Wider transactions spill to the heap through append; nothing
// else about them differs.
const inlineItems = 8

// Run executes one transaction entirely at this site: the paper's §5
// seven steps, once. The op list is folded into per-item (need, delta)
// pairs; under lifeMu's read side and the items' stripes the
// transaction is admitted, locked and stamped, and the authoritative
// local values decide what happens next. A write-only transaction
// whose items are all adequate enqueues and applies its commit record
// right there, stripes still held — §5's "the initial steps of data
// redistribution can be ignored". Anything else — a shortfall, a full
// read — releases the stripes and lifeMu (neither is ever held across
// a network wait), asks, waits, re-fences on the epoch and falls into
// the same commit tail. The tail lets go of the locks and the stripes
// before the record's force, and answers only after it (admission.go);
// a transaction that changes nothing and consumed no Vm writes no
// record and answers once the log is stable up to the last record
// applied to its items.
// Either way the calling goroutine blocks for at most the
// transaction's timeout plus local processing and always gets a
// decision: the protocol is non-blocking by construction.
//
// Lock order: lifeMu.RLock ≺ stripes. lifeMu comes first because a
// stripe taken before it would deadlock against Crash's fence (a
// pending lifeMu writer blocks new readers while a handler holding the
// read side waits on our stripe). Holding one
// read side across liveness check, enqueue and force is the crash
// atomicity: once Crash returns, no stale-epoch commit record can
// still reach the log — recovery's scan would miss it — and none that
// was applied is missing.
func (s *Site) Run(t *txn.Txn) *txn.Result {
	start := s.cfg.Clock.Now()
	tr := s.obsm.ring.Begin(start, s.obsm.site, t.Label)
	var rootSpan uint64
	if tr != nil {
		rootSpan = s.newSpan()
		tr.SetSpan(rootSpan)
	}
	// step records one protocol-step boundary: the trace step plus its
	// segment duration into dvp_step_seconds{step=...}, both at one
	// reading of the site's clock. Details are formatted at the call
	// site, and only when someone is tracing.
	segStart := start
	step := func(st stepID, detail string) {
		now := s.cfg.Clock.Now()
		s.obsm.observeStep(st, now.Sub(segStart))
		segStart = now
		tr.Step(now, st.String(), detail)
	}
	var detail string
	res := &txn.Result{}
	finish := func(status txn.Status) *txn.Result {
		now := s.cfg.Clock.Now()
		res.Status = status
		res.Latency = now.Sub(start)
		s.obsm.observeTxn(status, res.Latency)
		tr.Finish(now, status.String())
		return res
	}

	var (
		itemBuf           [inlineItems]ident.ItemID
		needBuf, deltaBuf [inlineItems]core.Value
	)
	items, needs, deltas := fold(t, itemBuf[:0], needBuf[:0], deltaBuf[:0])
	writeOnly := len(t.Reads) == 0

	s.lifeMu.RLock()
	epoch, up := s.currentEpoch()
	if !up {
		s.lifeMu.RUnlock()
		return finish(txn.StatusSiteDown)
	}

	// Draw TS(t): timestamp and identity in one (§6.1).
	ts, err := s.draw()
	if err != nil {
		s.lifeMu.RUnlock()
		return finish(txn.StatusSiteDown)
	}
	res.TS = ts
	id := ts.Txn()
	tr.SetTS(uint64(ts))
	step(stepAdmit, "")

	// Step 1 — atomically lock the local values of A(t), with the
	// scheme's admission check, stamping under Conc1. The stripes
	// covering A(t) make check+lock+stamp one atomic step against
	// message handling on those items; transactions on disjoint
	// stripes admit concurrently. The same pass reads each item's
	// authoritative quota against its need: a shortfall is not an
	// abort, it selects the redistribution below.
	stripes := s.stripeMask(items)
	s.lockStripes(stripes)
	var stBuf [inlineItems]*itemState
	sts := stBuf[:0] // the items' volatile state, parallel to items
	for _, item := range items {
		sts = append(sts, s.itemAt(s.stripeOf(item), item))
	}
	verdict := s.admitLocked(ts, items, sts, needs)
	if verdict == admitCCRejected {
		s.unlockStripes(stripes)
		s.lifeMu.RUnlock()
		return finish(txn.StatusCCRejected)
	}
	step(stepCCCheck, "")
	if !s.lockAndStamp(ts, sts) {
		s.unlockStripes(stripes)
		s.lifeMu.RUnlock()
		s.obsm.flight.Recordf(s.obsm.site, "lock-conflict", "txn=%v label=%s items=%d", ts, t.Label, len(items))
		return finish(txn.StatusLockConflict)
	}
	step(stepLock, "")

	// One exit for everything below. Releasing the locks and taking the
	// Vm parked behind them is one step under the stripes (the commit
	// tail does it under the stripes it already holds, an abort exit
	// takes them in abandon, logging what the transaction held); the
	// parked Vm then get their redelivery shot at the freshly-unlocked
	// window, after everything is let go — redelivery takes lifeMu
	// again.
	var (
		parked []deferredVm
		w      *waiter
	)
	locked := true
	defer func() {
		if locked {
			parked = s.abandon(id, epoch, stripes, sts, w)
		}
		s.redeliver(parked)
	}()

	if verdict == admitShort || !writeOnly {
		// Step 2 — determine inadequate items. The no-wait locks keep
		// every mutator but our own credits off these items, so the
		// values stay what admission saw.
		needMap := make(map[ident.ItemID]core.Value, len(items))
		shortfall := make(map[ident.ItemID]core.Value)
		for i, item := range items {
			if needs[i] == 0 {
				continue
			}
			needMap[item] = needs[i]
			if have := s.cfg.DB.Value(item); have < needs[i] {
				shortfall[item] = needs[i] - have
			}
		}
		// Park on the items before letting go of the fence and the
		// stripes: a Vm handler finds the waiter under the stripe it
		// holds, and Crash's sweep — behind the fence — cannot miss it.
		// The epoch tag lets Crash fail exactly the waiters of the epoch
		// it ends.
		w = newWaiter(id, ts, epoch, needMap, t.Reads)
		for _, st := range sts {
			st.waiter = w
		}
		s.unlockStripes(stripes)
		s.lifeMu.RUnlock()
		if writeOnly {
			s.obsm.fastFallbacks.Inc()
		}

		// ... and send requests.
		var tctx wire.TraceCtx
		if rootSpan != 0 {
			tctx = wire.TraceCtx{Origin: s.cfg.ID, TS: ts, Span: rootSpan}
		}
		res.RequestsSent = s.sendRequests(ts, shortfall, t.Reads, t.Ask, tctx)
		if tr != nil {
			detail = fmt.Sprintf("requests=%d policy=%v", res.RequestsSent, t.Ask)
		}
		step(stepAsk, detail)

		// Step 3 — await the requisite Vm or the timeout.
		status := s.await(w, epoch, t.Timeout)
		if status == txn.StatusSiteDown {
			return finish(status)
		}
		res.VmAccepted = w.acceptedCount()
		if tr != nil {
			detail = fmt.Sprintf("accepted=%d", res.VmAccepted)
		}
		step(stepVmAccept, detail)
		if status == txn.StatusTimeout {
			// §5 step 3: "declare an abort and then release the
			// locks". Quota already received stays — the aborted
			// transaction degenerates to an Rds transaction (§6), whose
			// acceptance records abandon writes as it releases. The
			// residual shortfall feeds the demand cells: unmet need
			// is the strongest rebalancing signal there is.
			s.recordDeficit(w.needs)
			s.obsm.flight.Recordf(s.obsm.site, "txn-timeout", "txn=%v label=%s accepted=%d", ts, t.Label, res.VmAccepted)
			return finish(status)
		}

		// Back under the fence and the stripes for the commit. Nothing
		// but credits held for this transaction touched the locked items
		// meanwhile, so adequacy still holds.
		s.lifeMu.RLock()
		if !s.sameEpoch(epoch) {
			s.lifeMu.RUnlock()
			return finish(txn.StatusSiteDown)
		}
		s.lockStripes(stripes)
	}

	// Step 4 — the computation. Operators are partitionable, so applying
	// them in order to an adequate value is adding the folded delta;
	// full reads observe the gathered value — the local quota plus the
	// credits held for this transaction — before its own writes.
	var held []acceptedVm
	if w != nil {
		held = w.heldCredits()
	}
	if !writeOnly {
		res.Reads = make(map[ident.ItemID]core.Value, len(t.Reads))
		for _, item := range t.Reads {
			res.Reads[item] = s.cfg.DB.Value(item) + creditOn(held, item)
		}
	}
	var actBuf [inlineItems]wal.Action
	actions := actBuf[:0]
	for i, item := range items {
		if d := deltas[i] + creditOn(held, item); d != 0 {
			actions = append(actions, wal.Action{Item: item, Delta: d, SetTS: ts})
		}
	}

	// Steps 5 and 6 — enqueue the commit record (its stability will
	// commit t) and apply it, as one unit per item under the stripes;
	// the force comes after they are let go. One record per commit: a
	// restart rebuilds the store from the log, so there is no separate
	// "applied" record, and the record's actions
	// net the credits t consumed, so it is their acceptance record too
	// (§4.2's `[database-actions, message-sequence]`): it lists them,
	// they are marked applied on their channels at its enqueue, and they
	// settle — reported, counted, acked — on its force.
	//
	// A transaction that changes nothing and consumed no Vm — a full
	// read whose donors all answered NoShare, most often — writes no
	// record: redo would find nothing in it, and its stamp is covered
	// by the clock's reservation. Its commit point is instead the
	// stability of what it observed: its fence, the last record applied
	// to any of its items, waited for below as a record's force is.
	var d durable
	recordless := len(actions) == 0 && len(held) == 0
	if recordless {
		for _, st := range sts {
			d.lsn = max(d.lsn, st.logged)
		}
	} else {
		rec := wal.CommitRec{Txn: ts, Actions: actions}
		var mark func()
		if len(held) > 0 {
			rec.Accepted = make([]wal.VmRef, len(held))
			for i, e := range held {
				rec.Accepted[i] = wal.VmRef{From: e.from, Seq: e.seq}
			}
			mark = func() {
				for _, e := range held {
					s.vm.MarkApplied(e.from, e.seq)
				}
			}
		}
		if d, err = s.enqueueApply(wal.RecCommit, rec.EncodeTo, actions, mark); err != nil {
			s.unlockStripes(stripes)
			s.lifeMu.RUnlock()
			return finish(txn.StatusSiteDown)
		}
		if len(held) > 0 {
			w.takeHeld()
			s.pend(d.lsn, held...)
		}
	}

	// Step 7. The items' volatile state is brought up to date while
	// the stripes are still held: fully-read items snapshot the merged
	// observation vector, written items register this transaction as
	// their site's next writer (every commit updates the vectors
	// whether or not anyone listens — grants stamp them onto outgoing
	// value; the hook's maps are built only when someone does) and
	// feed committed consumption into their demand cell — the "how fast
	// is quota leaving here" half of the demand signal. Then the locks
	// go, before the stripes do and before the force: whoever queued on
	// a stripe behind this commit must find the item free when it gets
	// there, not abort on the lock of a transaction whose record is
	// already in the log — its own record queues behind this one.
	hook := s.cfg.OnCommit
	var ci CommitInfo
	if hook != nil {
		ci = CommitInfo{
			CommittedTxn: cc.CommittedTxn{
				TS: ts, Site: s.cfg.ID, Deltas: t.Deltas(), Reads: res.Reads,
				WriterIdx: make(map[ident.ItemID]uint64, len(actions)),
				ReadVec:   make(map[ident.ItemID]map[ident.SiteID]uint64, len(t.Reads)),
			},
			Label: t.Label, CommitLSN: d.lsn, Recordless: recordless,
		}
		for _, item := range t.Reads {
			ci.ReadVec[item] = sts[indexOf(items, item)].flowSnapshot()
		}
	}
	for i, st := range sts {
		if deltas[i] == 0 {
			continue
		}
		idx := st.writerCommit(s.cfg.ID)
		if hook != nil {
			ci.WriterIdx[items[i]] = idx
		}
		st.demand.add(-deltas[i], segStart, s.cfg.Rebalance.HalfLife)
	}
	parked, locked = releaseItems(id, sts), false
	s.unlockStripes(stripes)
	step(stepApply, "")

	// Step 5's commit point: the record's stability, or the fence's.
	// Nothing about t — reply, hook, counters — leaves the site before
	// it; if the force fails, the site stops and t is not reported
	// committed. The acceptances the force carried — those t's own
	// record lists, and any logged before it — are acked from here.
	if recordless {
		err = s.cfg.Log.WaitDurable(d.lsn) // the fenced record's writer stops the site if this fails
	} else {
		err = s.waitForce(&d)
	}
	if err == nil {
		s.settleAccepts(d.lsn, nil)
	}
	s.lifeMu.RUnlock()
	if err != nil {
		return finish(txn.StatusSiteDown)
	}
	step(stepWalFlush, "")

	if writeOnly && verdict == admitOK {
		s.obsm.fastCommits.Inc()
	}
	if hook != nil {
		hook(ci)
	}
	return finish(txn.StatusCommitted)
}

// abandon is Run's exit for a transaction that does not commit. In one
// hold of its items' stripes it logs each credit held for it as an
// acceptance record of its own (acceptLogged) — unless its epoch ended,
// Crash having dropped them, or a commit that failed to apply already
// accepted one — and frees its locks, taking the Vm parked behind them:
// a Vm held up to the release is not lost. On its way out it settles
// what the log holds stable; it asks for a force only if it logged a
// credit. Until that credit is acked, its sender holds the Vm
// outstanding and declines every full read of the item — a retry of
// this very transaction among them, each decline costing the reader
// its whole timeout. Forced and settled here, the ack rides the
// retry's own requests, and the sender reads it before the request.
// w is nil for a transaction that never waited.
func (s *Site) abandon(id ident.TxnID, epoch, stripes uint64, sts []*itemState, w *waiter) []deferredVm {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	s.lockStripes(stripes)
	logged := false
	if w != nil && s.sameEpoch(epoch) {
		for _, e := range w.takeHeld() {
			if !s.vm.ShouldAccept(e.from, e.seq) {
				continue
			}
			if err := s.acceptLogged(e, 0); err != nil {
				s.endHop(e.hop, "log-error")
				continue
			}
			logged = true
		}
	}
	parked := releaseItems(id, sts)
	s.unlockStripes(stripes)
	if logged {
		s.forceAccepts()
	} else {
		s.settleAccepts(s.cfg.Log.DurableLSN(), nil)
	}
	return parked
}

// fold reduces a transaction to its access set A(t) — op items in
// first-use order, then items that are only read — with, per item,
// the minimum local quota its ops need (core's composite
// running-requirement rule: each op's need net of the deltas before
// it) and their net delta. The caller supplies the backing arrays.
func fold(t *txn.Txn, items []ident.ItemID, needs, deltas []core.Value) ([]ident.ItemID, []core.Value, []core.Value) {
	for _, op := range t.Ops {
		i := indexOf(items, op.Item)
		if i < 0 {
			i = len(items)
			items, needs, deltas = append(items, op.Item), append(needs, 0), append(deltas, 0)
		}
		if need := op.Op.Needs() - deltas[i]; need > needs[i] {
			needs[i] = need
		}
		deltas[i] += op.Op.Delta()
	}
	for _, item := range t.Reads {
		if indexOf(items, item) < 0 {
			items, needs, deltas = append(items, item), append(needs, 0), append(deltas, 0)
		}
	}
	return items, needs, deltas
}

func indexOf(items []ident.ItemID, item ident.ItemID) int {
	for i := range items {
		if items[i] == item {
			return i
		}
	}
	return -1
}

// await is §5 step 3: block until w is satisfied (StatusCommitted —
// proceed to commit), its timeout fires (StatusTimeout) or the epoch
// it parked in ends (StatusSiteDown).
func (s *Site) await(w *waiter, epoch uint64, timeout time.Duration) txn.Status {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	deadline := s.cfg.Clock.After(timeout)
	for !s.satisfied(w) {
		select {
		case <-w.notify:
			if !s.sameEpoch(epoch) {
				return txn.StatusSiteDown
			}
		case <-deadline:
			if !s.sameEpoch(epoch) {
				return txn.StatusSiteDown
			}
			return txn.StatusTimeout
		}
	}
	return txn.StatusCommitted
}

// sendRequests dispatches the §5 step-2 requests: full-read gathers to
// every peer, shortfall requests per the ask policy. Returns the
// number of requests sent.
func (s *Site) sendRequests(ts tstamp.TS, shortfall map[ident.ItemID]core.Value, reads []ident.ItemID, ask txn.AskPolicy, tctx wire.TraceCtx) int {
	peers := s.peersExceptSelf()
	sent := 0
	for _, item := range reads {
		for _, p := range peers {
			s.send(p, &wire.Request{Txn: ts, Item: item, FullRead: true, Trace: tctx})
			s.obsm.forPeer(p).asksSent.Inc()
			sent++
		}
	}
	if len(shortfall) > 0 {
		fan := ask.Fanout(len(peers))
		if fan <= 0 {
			fan = len(peers)
		}
		// Rotate the starting peer so AskOne/AskTwo spread load.
		startAt := int(s.askCursor.Add(1) - 1)
		for item, want := range shortfall {
			for k := 0; k < fan && k < len(peers); k++ {
				p := peers[(startAt+k)%len(peers)]
				// Under AskAll every peer is asked for the full
				// shortfall; with narrower fanouts likewise — the
				// exact split is the granting side's business.
				s.send(p, &wire.Request{Txn: ts, Item: item, Want: want, Trace: tctx})
				s.obsm.forPeer(p).asksSent.Inc()
				sent++
			}
		}
	}
	return sent
}

// satisfied is the §5 step-3/4 gate: every op item has adequate local
// quota, counting the credits held for the transaction, and every full
// read has gathered all of Π⁻¹(d): a response from every peer and no Vm
// of ours still carrying the item away.
func (s *Site) satisfied(w *waiter) bool {
	for item, need := range w.needs {
		if s.cfg.DB.Value(item)+w.heldOn(item) < need {
			return false
		}
	}
	if len(w.reads) == 0 {
		return true
	}
	for item := range w.reads {
		if s.vm.HasOutstanding(item) {
			return false
		}
	}
	return w.allResponded(s.peersExceptSelf())
}
