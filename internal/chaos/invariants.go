package chaos

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"dvp"
	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// checkInvariants runs every global invariant family at a quiescent,
// fully-up, fully-connected barrier.
func (r *runner) checkInvariants(round int) error {
	if err := r.checkDurability(); err != nil {
		return err
	}
	if err := r.checkConservation(); err != nil {
		return err
	}
	if err := r.checkNonNegative(); err != nil {
		return err
	}
	if err := r.checkExactlyOnce(); err != nil {
		return err
	}
	if err := r.checkDurability(); err != nil {
		return err
	}
	if err := r.checkSerializability(); err != nil {
		return err
	}
	if err := r.checkIdempotence(round); err != nil {
		return err
	}
	// The drain above sent and acknowledged too.
	return r.eventViolation()
}

// violated records err as an event-time violation unless an earlier
// one is already held.
func (r *runner) violated(err error) {
	r.mu.Lock()
	if r.eventErr == nil {
		r.eventErr = err
	}
	r.mu.Unlock()
}

// eventViolation returns the first event-time violation, if any.
func (r *runner) eventViolation() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventErr
}

// checkReplyAfterLog is the durability family's "no reply ahead of the
// log", checked inside the OnCommit hook — the moment the site reports
// the commit, alongside its reply: the site's durable watermark must
// already cover the commit record, or for a read that wrote none, its
// fence. A site enqueues and applies the record under the item's stripe
// and forces it after letting go; this is the check that it answers
// only after the force.
func (r *runner) checkReplyAfterLog(ci dvp.CommitInfo) {
	if d := r.c.GroupLog(int(ci.Site)).DurableLSN(); d < ci.CommitLSN {
		r.violated(fmt.Errorf(
			"durability: site %v reported txn %v committed at LSN %d with its durable watermark at %d — a reply ran ahead of the log",
			ci.Site, ci.TS, ci.CommitLSN, d))
	}
}

// chanKey names one Vm: its peer (receiver or sender, by context) and
// sequence number.
type chanKey struct {
	peer ident.SiteID
	seq  uint64
}

// createIndex records, per site, every Vm its stable log has created —
// as a VmCreate record, or as a checkpoint's pending entry once
// compaction has dropped the record — scanned incrementally from next.
type createIndex struct {
	mu    sync.Mutex
	sites map[ident.SiteID]*siteCreates
}

type siteCreates struct {
	next  uint64
	vm    map[chanKey]bool
	names wal.Names // the log's item table, fed up to next
}

// checkVmAfterLog is the exactly-once family's "no Vm on the wire
// ahead of its create record", checked in the network tap as each
// frame leaves: every Vm a Vm or VmBatch envelope carries must already
// be created by a record in its sender's stable log. A site deducts a
// Vm's value when its create record is enqueued and may send the Vm
// only once that record is stable (§4.2: the Vm exists from that
// instant). A Vm the sender has already had acknowledged is exempt —
// its record may lie behind a compaction horizon the index never saw.
func (r *runner) checkVmAfterLog(from ident.SiteID, kind wire.Kind, frame []byte) {
	if kind != wire.KVm && kind != wire.KVmBatch {
		return
	}
	env, err := wire.Unmarshal(frame)
	if err != nil {
		r.violated(fmt.Errorf("wire audit: site %v sent an undecodable %v frame: %w", from, kind, err))
		return
	}
	var vms []wire.Vm
	switch m := env.Msg.(type) {
	case *wire.Vm:
		vms = []wire.Vm{*m}
	case *wire.VmBatch:
		vms = m.Vms
	}
	eng := r.c.SiteEngine(int(from))
	r.creates.mu.Lock()
	defer r.creates.mu.Unlock()
	sc := r.creates.sites[from]
	if sc == nil {
		sc = &siteCreates{next: 1, vm: make(map[chanKey]bool)}
		r.creates.sites[from] = sc
	}
	for _, v := range vms {
		k := chanKey{env.To, v.Seq}
		if sc.vm[k] {
			continue
		}
		if err := sc.scan(eng.Log()); err != nil {
			r.violated(fmt.Errorf("wire audit: site %v log scan: %w", from, err))
			return
		}
		if sc.vm[k] || v.Seq <= eng.VM().CumAck(env.To) {
			continue
		}
		r.violated(fmt.Errorf(
			"exactly-once: site %v sent Vm (to=%v seq=%d item=%s amount=%d) with no create record for it in its stable log (last stable LSN %d) — a Vm went on the wire ahead of its create record",
			from, env.To, v.Seq, v.Item, v.Amount, eng.Log().LastLSN()))
		return
	}
}

// scan indexes the Vm created by the stable log's records from next on.
func (sc *siteCreates) scan(log wal.Log) error {
	return log.Scan(sc.next, func(rec wal.Record) error {
		sc.next = rec.LSN + 1
		switch rec.Kind {
		case wal.RecName:
			if _, err := sc.names.DecodeName(rec.Data); err != nil {
				return fmt.Errorf("LSN %d: %w", rec.LSN, err)
			}
		case wal.RecVmCreate:
			cr, err := sc.names.DecodeVmCreate(rec.Data)
			if err != nil {
				return fmt.Errorf("LSN %d: %w", rec.LSN, err)
			}
			for _, m := range cr.Msgs {
				sc.vm[chanKey{m.To, m.Seq}] = true
			}
		case wal.RecCheckpoint:
			cp, err := sc.names.DecodeCheckpoint(rec.Data)
			if err != nil {
				return fmt.Errorf("LSN %d: %w", rec.LSN, err)
			}
			for _, ch := range cp.Channels {
				for _, v := range ch.Pending {
					sc.vm[chanKey{ch.Peer, v.Seq}] = true
				}
			}
		}
		return nil
	})
}

// checkRebalanceQuiet is the anti-thrash invariant on the demand
// rebalancer: at a healed, workload-free barrier, transfer volume must
// die down by itself — the quiescence threshold and per-item cooldown
// exist precisely so idle skew is left alone. A rebalancer that keeps
// shipping value between idle sites would burn Vm (and log space)
// forever in production. The check samples the cluster-wide transfer
// counter over short windows and insists some window stays (near)
// quiet; the bound allows a straggler per site pair for transfers
// already past their demand check when the workload stopped.
func (r *runner) checkRebalanceQuiet(round int) error {
	const (
		window     = 5 * rebalInterval // a few ticks per site per window
		maxWindows = 12
	)
	quiet := uint64(r.sched.Sites / 2)
	total := func() uint64 {
		return r.c.Metrics().SumCounters("dvp_rebalance_transfers_total")
	}
	last := total()
	for w := 1; w <= maxWindows; w++ {
		time.Sleep(window)
		cur := total()
		if cur-last <= quiet {
			r.tracef("r%d barrier: rebalancer quiet after %d window(s), %d transfers total",
				round, w, cur)
			r.count(func(rep *Report) { rep.RebalanceTransfers = int(cur) })
			return nil
		}
		last = cur
	}
	return fmt.Errorf(
		"anti-thrash: rebalancer still issued >%d transfers per %v window after %d windows at an idle barrier (%d total)",
		quiet, window, maxWindows, total())
}

// checkConservation verifies the paper's central invariant: for every
// item, Σⱼ dⱼ plus in-flight redistribution equals the initial Γ plus
// the net effect of committed transactions — whatever crashed, lost or
// duplicated along the way.
func (r *runner) checkConservation() error {
	r.mu.Lock()
	deltas := make(map[string]int64, len(r.items))
	for _, ci := range r.committed {
		for item, d := range ci.Deltas {
			deltas[string(item)] += int64(d)
		}
	}
	r.mu.Unlock()
	for _, item := range r.items {
		want := r.initial[item] + deltas[item]
		got := int64(r.c.GlobalTotal(item))
		if got != want {
			return fmt.Errorf(
				"conservation: item %s global total %d, want %d (initial %d %+d committed) — value %s",
				item, got, want, r.initial[item], deltas[item],
				gainOrLoss(got-want))
		}
	}
	return nil
}

func gainOrLoss(d int64) string {
	if d > 0 {
		return fmt.Sprintf("duplicated (+%d)", d)
	}
	return fmt.Sprintf("lost (%d)", d)
}

// checkNonNegative verifies no partition dⱼ anywhere went negative —
// the bounded-decrement guarantee holds per site, not just globally.
func (r *runner) checkNonNegative() error {
	for i := 1; i <= r.sched.Sites; i++ {
		for _, item := range r.items {
			if v := r.c.Quota(i, item); v < 0 {
				return fmt.Errorf("non-negative: site %d holds %s=%d", i, item, v)
			}
		}
	}
	for i := 1; i <= r.sched.Sites; i++ {
		for _, v := range r.c.SiteEngine(i).VM().PendingAll() {
			if v.Amount < 0 {
				return fmt.Errorf("non-negative: site %d has in-flight Vm %s=%d", i, v.Item, v.Amount)
			}
		}
	}
	return nil
}

// checkExactlyOnce verifies every virtual message was applied exactly
// once, three ways:
//
//  1. Live counters: at quiescence with nothing pending, every created
//     Vm has been accepted by its receiver, and accepts equal creates
//     (duplicate deliveries were detected, counted and discarded).
//     Neither counter is bumped by recovery replay, so the identity
//     spans crashes.
//  2. WAL audit: no sender's log creates the same (to, seq) twice; no
//     receiver's log accepts the same (from, seq) twice, whether by an
//     acceptance record or in a commit record's list. The stable
//     history itself contains no double-spend.
//  3. Channel cursors: no receiver has cumulatively acked past what
//     its sender ever allocated, and no sender has been acked past what
//     its receiver's stable log accepts (checkNoAckAheadOfLog).
func (r *runner) checkExactlyOnce() error {
	var created, accepted, dups uint64
	for i := 1; i <= r.sched.Sites; i++ {
		st := r.c.SiteStats(i)
		created += st.VmCreated
		accepted += st.VmAccepted
		dups += st.VmDuplicates
	}
	if created != accepted {
		return fmt.Errorf(
			"exactly-once: ΣVmCreated=%d but ΣVmAccepted=%d (dups discarded: %d) at quiescence",
			created, accepted, dups)
	}

	for i := 1; i <= r.sched.Sites; i++ {
		log := r.c.SiteEngine(i).Log()
		sentOnce := make(map[chanKey]bool)
		acceptedOnce := make(map[chanKey]bool)
		var names wal.Names
		err := log.Scan(1, func(rec wal.Record) error {
			var cr *wal.VmCreateRec
			var err error
			switch rec.Kind {
			case wal.RecName:
				_, err = names.DecodeName(rec.Data)
			case wal.RecCheckpoint:
				_, err = names.DecodeCheckpoint(rec.Data)
			case wal.RecVmCreate:
				cr, err = names.DecodeVmCreate(rec.Data)
			}
			if err != nil {
				return fmt.Errorf("site %d LSN %d: %w", i, rec.LSN, err)
			}
			if cr != nil {
				for _, m := range cr.Msgs {
					k := chanKey{m.To, m.Seq}
					if sentOnce[k] {
						return fmt.Errorf(
							"exactly-once: site %d log creates Vm (to=%v seq=%d) twice", i, m.To, m.Seq)
					}
					sentOnce[k] = true
				}
			}
			accepted, err := wal.Accepted(rec)
			if err != nil {
				return fmt.Errorf("site %d LSN %d: %w", i, rec.LSN, err)
			}
			for _, v := range accepted {
				k := chanKey{v.From, v.Seq}
				if acceptedOnce[k] {
					return fmt.Errorf(
						"exactly-once: site %d log accepts Vm (from=%v seq=%d) twice", i, v.From, v.Seq)
				}
				acceptedOnce[k] = true
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	for i := 1; i <= r.sched.Sites; i++ {
		for j := 1; j <= r.sched.Sites; j++ {
			if i == j {
				continue
			}
			send := r.c.SiteEngine(i).VM()
			recv := r.c.SiteEngine(j).VM()
			if ack, out := recv.AckFor(ident.SiteID(i)), send.OutSeq(ident.SiteID(j)); ack > out {
				return fmt.Errorf(
					"exactly-once: site %d acked %d from site %d, which only ever allocated %d",
					j, ack, i, out)
			}
		}
	}
	return r.checkNoAckAheadOfLog()
}

// checkNoAckAheadOfLog is the exactly-once family's "no ack ahead of
// the log" audit: on every channel, the sender's cumulative ack is at
// most the highest contiguous sequence whose acceptance the receiver's
// stable log holds — as a RecVmAccept, in a RecCommit's accepted list,
// or inside a checkpoint's channel state once compaction has dropped
// the record. A receiver credits a Vm when the record accepting it is
// enqueued; this is the check that it never acknowledged one before
// that record was stable.
// It needs no quiescence (the sender's cursor is read before the
// receiver's log, and both only grow), so degraded barriers run it too.
func (r *runner) checkNoAckAheadOfLog() error {
	for j := 1; j <= r.sched.Sites; j++ {
		acked := make(map[ident.SiteID]uint64, r.sched.Sites)
		for i := 1; i <= r.sched.Sites; i++ {
			if i != j {
				acked[ident.SiteID(i)] = r.c.SiteEngine(i).VM().CumAck(ident.SiteID(j))
			}
		}
		// What the stable log accepts is what recovery would rebuild
		// from it: the same two calls, into a scratch manager.
		logged := vmsg.NewManager()
		var names wal.Names
		err := r.c.SiteEngine(j).Log().Scan(1, func(rec wal.Record) error {
			switch rec.Kind {
			case wal.RecName:
				if _, err := names.DecodeName(rec.Data); err != nil {
					return fmt.Errorf("site %d LSN %d: %w", j, rec.LSN, err)
				}
			case wal.RecCheckpoint:
				cp, err := names.DecodeCheckpoint(rec.Data)
				if err != nil {
					return fmt.Errorf("site %d LSN %d: %w", j, rec.LSN, err)
				}
				logged.RestoreChannels(cp.Channels)
			}
			accepted, err := wal.Accepted(rec)
			if err != nil {
				return fmt.Errorf("site %d LSN %d: %w", j, rec.LSN, err)
			}
			for _, v := range accepted {
				logged.MarkAccepted(v.From, v.Seq)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("exactly-once: site %d log scan: %w", j, err)
		}
		for i := 1; i <= r.sched.Sites; i++ {
			from := ident.SiteID(i)
			if ack, stable := acked[from], logged.AckFor(from); ack > stable {
				return fmt.Errorf(
					"exactly-once: site %v holds a cumulative ack of %d from site %d, whose stable log accepts contiguously only up to %d — an ack ran ahead of the log",
					from, ack, j, stable)
			}
		}
	}
	return nil
}

// checkDurability verifies the group-commit pipeline never lied about
// stability: every transaction the workload saw commit carries the LSN
// of the commit record that acknowledged it, and that record must
// still exist in the site's stable log — whatever crashes (including
// crash-in-flush, which kills the site with committers parked
// mid-batch) the schedule injected. A read that wrote no record is
// checked by its fence instead: the record it waited to see stable,
// of whatever kind, must still be there. Records older than the log's
// compaction horizon (a checkpoint subsumed them) are exempt. The
// pipeline itself must also be drained at a barrier: no parked
// committers, durable watermark caught up with the last assigned LSN.
func (r *runner) checkDurability() error {
	type acked struct {
		lsn   uint64
		fence bool
	}
	r.mu.Lock()
	ackedBySite := make(map[ident.SiteID][]acked)
	for _, ci := range r.committed {
		if ci.CommitLSN > 0 {
			ackedBySite[ci.Site] = append(ackedBySite[ci.Site], acked{ci.CommitLSN, ci.Recordless})
		}
	}
	r.mu.Unlock()

	for i := 1; i <= r.sched.Sites; i++ {
		gl := r.c.GroupLog(i)
		if n := gl.Waiters(); n != 0 {
			return fmt.Errorf("durability: site %d has %d committers parked in the group-commit queue at a quiescent barrier", i, n)
		}
		if d, l := gl.DurableLSN(), gl.LastLSN(); d != l {
			return fmt.Errorf("durability: site %d durable watermark %d behind last LSN %d at a quiescent barrier", i, d, l)
		}
		acked := ackedBySite[ident.SiteID(i)]
		if len(acked) == 0 {
			continue
		}
		var horizon uint64 // first retained LSN
		kinds := make(map[uint64]wal.RecordKind)
		err := r.c.SiteEngine(i).Log().Scan(1, func(rec wal.Record) error {
			if horizon == 0 || rec.LSN < horizon {
				horizon = rec.LSN
			}
			kinds[rec.LSN] = rec.Kind
			return nil
		})
		if err != nil {
			return fmt.Errorf("durability: site %d log scan: %w", i, err)
		}
		for _, a := range acked {
			kind, ok := kinds[a.lsn]
			switch {
			case a.lsn < horizon:
			case a.fence && !ok:
				return fmt.Errorf(
					"durability: site %d answered a read fenced at LSN %d but the record is gone from the stable log (retained from LSN %d) — a read outlived what it saw",
					i, a.lsn, horizon)
			case !a.fence && kind != wal.RecCommit:
				return fmt.Errorf(
					"durability: site %d acknowledged a commit at LSN %d but the record is gone from the stable log (retained from LSN %d) — an acked commit was lost",
					i, a.lsn, horizon)
			}
		}
	}
	return nil
}

// checkSerializability replays the full committed history serially in
// timestamp order (the §6.1 equivalence order) and verifies every full
// read observed exactly the serial value, plus conservation of the
// replayed state — across every crash, partition and loss surge the
// schedule injected.
func (r *runner) checkSerializability() error {
	r.mu.Lock()
	txns := make([]cc.CommittedTxn, len(r.committed))
	for k, ci := range r.committed {
		txns[k] = ci.CommittedTxn
		// The fold below adds into Deltas, which is the hook's read-only
		// map (and is folded afresh at every barrier): work on a copy.
		txns[k].Deltas = maps.Clone(ci.Deltas)
	}
	rds := slices.Clone(r.rds)
	r.mu.Unlock()

	// Fold every redistribution half into the replay at its stamp.
	// Halves sharing a committed transaction's timestamp (request
	// grants consumed by the waiting transaction) merge into it and
	// cancel; unmatched halves — a rebalancer deduct, a credit accepted
	// into a free item after its requester aborted — become their own
	// serial positions, reproducing the window where the value is in
	// flight and correctly invisible to full reads.
	byTS := make(map[tstamp.TS]int, len(txns))
	for k := range txns {
		byTS[txns[k].TS] = k
	}
	for _, e := range rds {
		k, ok := byTS[e.TS]
		if !ok {
			txns = append(txns, cc.CommittedTxn{
				TS:     e.TS,
				Site:   e.Site,
				Deltas: make(map[ident.ItemID]core.Value, 1),
			})
			k = len(txns) - 1
			byTS[e.TS] = k
		}
		txns[k].Deltas[e.Item] += e.Delta
	}

	initial := make(map[ident.ItemID]core.Value, len(r.items))
	final := make(map[ident.ItemID]core.Value, len(r.items))
	for _, item := range r.items {
		initial[ident.ItemID(item)] = core.Value(r.initial[item])
		final[ident.ItemID(item)] = r.c.GlobalTotal(item)
	}
	if err := cc.CheckSerializable(initial, final, txns); err != nil {
		return fmt.Errorf("serializability: %w", err)
	}
	return nil
}

// checkIdempotence holds each chosen site's store to its log (one
// rotating site per round; every site at the final barrier): replaying
// the stable log into brand-new state, as a restart does, must agree
// with the live store on every item.
func (r *runner) checkIdempotence(round int) error {
	var sites []int
	if round == r.sched.Rounds {
		for i := 1; i <= r.sched.Sites; i++ {
			sites = append(sites, i)
		}
	} else {
		sites = []int{(round-1)%r.sched.Sites + 1}
	}
	for _, i := range sites {
		eng := r.c.SiteEngine(i)
		db, _, _, err := recovery.Rebuild(eng.Log(), eng.ID())
		if err != nil {
			return fmt.Errorf("idempotence: site %d rebuild: %w", i, err)
		}
		for _, item := range r.items {
			if rebuilt, live := db.Value(ident.ItemID(item)), r.c.Quota(i, item); rebuilt != live {
				return fmt.Errorf(
					"idempotence: site %d %s rebuilt-from-log=%d live=%d",
					i, item, rebuilt, live)
			}
		}
	}
	return nil
}
