package site

import (
	"fmt"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
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
// seven steps, once, as admit → ask → await → commit, or abandon. The
// op list is folded into per-item (need, delta) pairs; under lifeMu's
// read side and the items' stripes the transaction is admitted, locked
// and stamped, and the authoritative local values decide what happens
// next. A write-only transaction whose items are all adequate enqueues
// and applies its commit record right there, stripes still held — §5's
// "the initial steps of data redistribution can be ignored". Anything
// else — a shortfall, a full read — releases the stripes and lifeMu
// (neither is ever held across a network wait), asks, waits, re-fences
// on the epoch and falls into the same commit tail. The tail lets go of
// the locks and the stripes before the record's force, and answers only
// after it (admission.go); a transaction that changes nothing and
// consumed no Vm writes no record and answers once the log is stable up
// to the last record applied to its items. What the steps decide is
// rules.go's. Either way the calling goroutine blocks for at most the
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
	var (
		itemBuf           [inlineItems]ident.ItemID
		needBuf, deltaBuf [inlineItems]core.Value
		stBuf             [inlineItems]*itemState
	)
	r := txnRun{res: &txn.Result{}, start: s.cfg.Clock.Now()}
	r.segStart = r.start
	r.tr = s.obsm.ring.Begin(r.start, s.obsm.site, t.Label)
	if r.tr != nil {
		r.rootSpan = s.newSpan()
		r.tr.SetSpan(r.rootSpan)
	}
	a := accessSet{t: t}
	a.items, a.needs, a.deltas = fold(t, itemBuf[:0], needBuf[:0], deltaBuf[:0])
	if n := len(a.items); n <= inlineItems {
		a.sts = stBuf[:n]
	} else {
		a.sts = make([]*itemState, n)
	}

	// Once finish has reported the decision, a transaction that still
	// holds its items' locks lets go of them in abandon; the Vm parked
	// behind the locks then get their redelivery shot at the unlocked
	// window, after everything is let go (redelivery takes lifeMu again).
	defer func() {
		if r.locked {
			r.parked = s.abandon(r.ts.Txn(), r.epoch, r.stripes, a.sts, r.w)
		}
		s.redeliver(r.parked)
	}()

	status := s.admit(&r, &a)
	if status == undecided && (r.verdict == admitShort || len(t.Reads) > 0) {
		s.ask(&r, &a)
		status = s.await(&r, &a)
	}
	if status == undecided {
		status = s.commit(&r, &a)
	}
	return s.finish(&r, &a, status)
}

// undecided is what a step of Run returns when the next one is to run.
const undecided txn.Status = 0

// accessSet is the transaction t and A(t) as fold lists it, with the
// items' state (admit fills sts in), on the caller's and Run's stack.
// It is apart from txnRun, whose fields reach the heap, because escape
// analysis does not tell a struct's fields apart; for the same reason
// no step stores a slice into it.
type accessSet struct {
	t             *txn.Txn
	items         []ident.ItemID
	needs, deltas []core.Value
	sts           []*itemState
}

// txnRun is one execution of Run, carried from step to step; segStart
// is the last step boundary's reading of the clock.
type txnRun struct {
	res             *txn.Result
	tr              *obs.TxnTrace
	rootSpan        uint64
	start, segStart time.Time

	ts      tstamp.TS
	epoch   uint64
	verdict admitVerdict
	stripes uint64
	w       *waiter // nil for a transaction that never waited

	// What it holds: lifeMu's read side, the stripes, the no-wait locks.
	fenced, striped, locked bool
	parked                  []deferredVm
}

// step records one protocol-step boundary — the trace step and its
// segment into dvp_step_seconds{step=...} — at one reading of the clock.
// Callers format details only when someone is tracing.
func (s *Site) step(r *txnRun, st stepID, detail string) {
	now := s.cfg.Clock.Now()
	s.obsm.observeStep(st, now.Sub(r.segStart))
	r.segStart = now
	r.tr.Step(now, st.String(), detail)
}

// finish is Run's one exit: it lets go of lifeMu's read side and the
// stripes, if still held, and reports status.
func (s *Site) finish(r *txnRun, a *accessSet, status txn.Status) *txn.Result {
	if r.striped {
		s.unlockStripes(r.stripes)
	}
	if r.fenced {
		s.lifeMu.RUnlock()
	}
	if status == txn.StatusLockConflict {
		s.obsm.flight.Recordf(s.obsm.site, "lock-conflict", "txn=%v label=%s items=%d", r.ts, a.t.Label, len(a.items))
	}
	now := s.cfg.Clock.Now()
	r.res.Status = status
	r.res.Latency = now.Sub(r.start)
	s.obsm.observeTxn(status, r.res.Latency)
	r.tr.Finish(now, status.String())
	return r.res
}

// admit is §5 step 1: atomically lock the local values of A(t), with
// the scheme's admission check, stamping under Conc1. The stripes
// covering A(t) make check+lock+stamp one atomic step against message
// handling on those items. The same pass reads each item's quota
// against its need: a shortfall selects the redistribution (ask).
// Undecided, it returns holding the fence, the stripes and the locks.
func (s *Site) admit(r *txnRun, a *accessSet) txn.Status {
	s.lifeMu.RLock()
	r.fenced = true
	epoch, up := s.currentEpoch()
	if !up {
		return txn.StatusSiteDown
	}
	r.epoch = epoch
	// Draw TS(t): timestamp and identity in one (§6.1).
	ts, err := s.draw()
	if err != nil {
		return txn.StatusSiteDown
	}
	r.ts, r.res.TS = ts, ts
	r.tr.SetTS(uint64(ts))
	s.step(r, stepAdmit, "")

	r.stripes = s.stripeMask(a.items)
	s.lockStripes(r.stripes)
	r.striped = true
	for i, item := range a.items {
		a.sts[i] = s.itemAt(s.stripeOf(item), item)
	}
	if r.verdict = s.admitLocked(ts, a.items, a.sts, a.needs); r.verdict == admitCCRejected {
		return txn.StatusCCRejected
	}
	s.step(r, stepCCCheck, "")
	if !s.lockAndStamp(ts, a.sts) {
		return txn.StatusLockConflict
	}
	r.locked = true
	s.step(r, stepLock, "")
	return undecided
}

// ask is §5 step 2: determine the inadequate items (the no-wait locks
// keep the values what admission saw) and send askPlan's requests. It
// parks the waiter on the items before it lets go of the fence and the
// stripes, so a Vm handler finds it under the stripe and Crash's sweep,
// behind the fence, cannot miss it; its epoch tag lets Crash fail
// exactly the waiters of the epoch it ends.
func (s *Site) ask(r *txnRun, a *accessSet) {
	var shortBuf [inlineItems]itemNeed
	short := shortBuf[:0]
	var needs []itemNeed
	for i, item := range a.items {
		if a.needs[i] == 0 {
			continue
		}
		needs = append(needs, itemNeed{item, a.needs[i]})
		if have := s.cfg.DB.Value(item); have < a.needs[i] {
			short = append(short, itemNeed{item, a.needs[i] - have})
		}
	}
	r.w = newWaiter(r.ts.Txn(), r.ts, r.epoch, needs, a.t.Reads)
	for _, st := range a.sts {
		st.waiter = r.w
	}
	s.unlockStripes(r.stripes)
	s.lifeMu.RUnlock()
	r.striped, r.fenced = false, false
	if len(a.t.Reads) == 0 {
		s.obsm.fastFallbacks.Inc()
	}

	var tctx wire.TraceCtx
	if r.rootSpan != 0 {
		tctx = wire.TraceCtx{Origin: s.cfg.ID, TS: r.ts, Span: r.rootSpan}
	}
	start := 0
	if len(short) > 0 { // rotate the starting peer, so AskOne/AskTwo spread load
		start = int(s.askCursor.Add(1) - 1)
	}
	plan := askPlan(s.peersExceptSelf(), a.t.Reads, short, a.t.Ask, start)
	for _, p := range plan {
		s.send(p.to, &wire.Request{Txn: r.ts, Item: p.item, Want: p.want, FullRead: p.fullRead, Trace: tctx})
		s.obsm.forPeer(p.to).asksSent.Inc()
	}
	r.res.RequestsSent = len(plan)
	var detail string
	if r.tr != nil {
		detail = fmt.Sprintf("requests=%d policy=%v", r.res.RequestsSent, a.t.Ask)
	}
	s.step(r, stepAsk, detail)
}

// await is §5 step 3: await the requisite Vm (undecided), the timeout
// or the end of the epoch; its timer is stopped either way. On a
// timeout — "declare an abort and then release the locks" — quota
// already received stays (abandon logs it, §6), and the residual
// shortfall feeds the demand cells, the strongest rebalancing signal.
func (s *Site) await(r *txnRun, a *accessSet) txn.Status {
	w, timeout := r.w, a.t.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	deadline := s.cfg.Clock.NewTimer(timeout)
	status := undecided
	quota := func(item ident.ItemID) core.Value { return s.cfg.DB.Value(item) + w.heldOn(item) }
	answered := func() bool { return w.allResponded(s.peersExceptSelf()) }
	for status == undecided && !satisfiedRule(w.needs, w.reads, quota, s.vm.HasOutstanding, answered) {
		select {
		case <-w.notify:
		case <-deadline.C():
			status = txn.StatusTimeout
		}
		if !s.sameEpoch(r.epoch) {
			status = txn.StatusSiteDown
		}
	}
	deadline.Stop()
	if status == txn.StatusSiteDown {
		return status
	}
	r.res.VmAccepted = w.acceptedCount()
	var detail string
	if r.tr != nil {
		detail = fmt.Sprintf("accepted=%d", r.res.VmAccepted)
	}
	s.step(r, stepVmAccept, detail)
	if status == txn.StatusTimeout {
		s.recordDeficit(w.needs)
		s.obsm.flight.Recordf(s.obsm.site, "txn-timeout", "txn=%v label=%s accepted=%d", r.ts, a.t.Label, r.res.VmAccepted)
	}
	return status
}

// commit is §5 steps 4 to 7. A transaction that waited comes back under
// the fence and its stripes first; nothing but its own credits touched
// its locked items, so adequacy still holds.
func (s *Site) commit(r *txnRun, a *accessSet) txn.Status {
	if !r.fenced {
		s.lifeMu.RLock()
		r.fenced = true
		if !s.sameEpoch(r.epoch) {
			return txn.StatusSiteDown
		}
		s.lockStripes(r.stripes)
		r.striped = true
	}
	t, res, ts, w := a.t, r.res, r.ts, r.w

	// Step 4 — the computation. Operators are partitionable, so applying
	// them in order to an adequate value is adding the folded delta;
	// full reads observe the gathered value — the local quota plus the
	// credits held for this transaction — before its own writes.
	var held []acceptedVm
	if w != nil {
		held = w.heldCredits()
	}
	if len(t.Reads) > 0 {
		res.Reads = make(map[ident.ItemID]core.Value, len(t.Reads))
		for _, item := range t.Reads {
			res.Reads[item] = s.cfg.DB.Value(item) + creditOn(held, item)
		}
	}
	var actBuf [inlineItems]wal.Action
	actions := actBuf[:0]
	for i, item := range a.items {
		if d := a.deltas[i] + creditOn(held, item); d != 0 {
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
	var err error
	recordless := len(actions) == 0 && len(held) == 0
	if recordless {
		for _, st := range a.sts {
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
			return txn.StatusSiteDown
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
			ci.ReadVec[item] = a.sts[indexOf(a.items, item)].flowSnapshot()
		}
	}
	for i, st := range a.sts {
		if a.deltas[i] == 0 {
			continue
		}
		idx := st.writerCommit(s.cfg.ID)
		if hook != nil {
			ci.WriterIdx[a.items[i]] = idx
		}
		st.demand.add(-a.deltas[i], r.segStart, s.cfg.Rebalance.HalfLife)
	}
	r.parked, r.locked = releaseItems(ts.Txn(), a.sts), false
	s.unlockStripes(r.stripes)
	r.striped = false
	s.step(r, stepApply, "")

	// Step 5's commit point: the record's stability, or the fence's.
	// Nothing about t — reply, hook, counters — leaves the site before
	// it; if the force fails, the site stops and t is not reported
	// committed. The acceptances the force carried are settled from
	// here, and t's own acked at once if ackAtOnce says so.
	if recordless {
		err = s.cfg.Log.WaitDurable(d.lsn) // the fenced record's writer stops the site if this fails
	} else {
		err = s.waitForce(&d)
	}
	if err == nil {
		var owed acks
		if ackAtOnce(true, len(t.Reads) > 0, len(held)) {
			for _, e := range held {
				owed.add(e.from)
			}
		}
		s.settleAccepts(d.lsn, owed)
	}
	s.lifeMu.RUnlock()
	r.fenced = false
	if err != nil {
		return txn.StatusSiteDown
	}
	s.step(r, stepWalFlush, "")

	if len(t.Reads) == 0 && r.verdict == admitOK {
		s.obsm.fastCommits.Inc()
	}
	if hook != nil {
		hook(ci)
	}
	return txn.StatusCommitted
}

// abandon is Run's exit for a transaction that does not commit. In one
// hold of its items' stripes it logs each credit held for it that
// keepHeld keeps (acceptLogged) and frees its locks, taking the Vm
// parked behind them. On its way out it settles what the log holds
// stable or, if ackAtOnce says so, forces and acks at once
// (forceAccepts), ahead of a retry's requests. w is nil for a
// transaction that never waited.
func (s *Site) abandon(id ident.TxnID, epoch, stripes uint64, sts []*itemState, w *waiter) []deferredVm {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	s.lockStripes(stripes)
	kept := 0
	if w != nil {
		ended := !s.sameEpoch(epoch)
		for _, e := range w.takeHeld() {
			if !keepHeld(ended, !s.vm.ShouldAccept(e.from, e.seq)) {
				continue
			}
			if err := s.acceptLogged(e, 0); err != nil {
				s.endHop(e.hop, "log-error")
				continue
			}
			kept++
		}
	}
	parked := releaseItems(id, sts)
	s.unlockStripes(stripes)
	if ackAtOnce(false, false, kept) {
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
