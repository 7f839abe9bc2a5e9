package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dvp"
	"dvp/internal/ident"
	"dvp/internal/vmsg"
	"dvp/internal/wire"
)

// Base network conditions outside scheduled fault surges. Loss and
// duplication are always on a little — a chaos run should never see a
// clean network — and Vm retransmission is paced fast so rounds are
// short.
const (
	baseLoss        = 0.02
	baseDup         = 0.02
	maxDelay        = time.Millisecond
	retransmitEvery = 4 * time.Millisecond
	// retransmitMax is the site's cap on the adaptive per-peer
	// retransmission backoff; the peer-down outage bound below is
	// stated in terms of it (one sweep per cap once backed off, against
	// one per 4ms tick unthrottled).
	retransmitMax = vmsg.RetransmitCap * retransmitEvery
	txnTimeout    = 25 * time.Millisecond
	quiesceBound  = 5 * time.Second

	// Outage bounds checked at degraded barriers while a peer is held
	// down (EvPeerDown): each survivor's retransmission set toward the
	// dead peer must stay under maxOutagePending entries (nothing new
	// should be created toward a silent peer — its requests stopped and
	// its adverts go stale), and its sweep count toward the peer must
	// stay rate-bounded (see checkPeerOutageBounds).
	maxOutagePending = 128

	// The demand-driven rebalancer runs at every site through the whole
	// run — it is part of the system under test, not a lab fixture. The
	// clock is fast (intervals well under a round) and the demand
	// half-life short, so the barrier's anti-thrash check observes the
	// steady state the round's skew left behind, not a still-decaying
	// transient.
	rebalInterval = 5 * time.Millisecond
	rebalHalfLife = 30 * time.Millisecond
)

// Options tunes a run. The zero value is what the tests use.
type Options struct {
	// Trace, when set, receives trace lines live as the run executes
	// (the dvpsim chaos -v stream). The Report keeps the full trace
	// regardless.
	Trace io.Writer
	// Tap, when set, observes every frame the simulated network
	// transmits (corpus capture).
	Tap func(from, to ident.SiteID, kind wire.Kind, frame []byte)
	// OnQuiescent, when set, runs after the final barrier's invariant
	// checks while the cluster is still up and quiescent (corpus
	// capture scans the stable logs here).
	OnQuiescent func(c *dvp.Cluster)
	// Sabotage, when set, runs inside the final round's barrier, once
	// every site is up and drained, right before the invariant checks,
	// and may mutate cluster state directly to force an invariant
	// violation — it exists to test that each invariant family can fail
	// and the violation artifacts themselves (the flight-recorder dump,
	// the replay trace).
	Sabotage func(c *dvp.Cluster)
}

// Report summarizes what a run did and checked. A report with a nil
// error from Run means every invariant held at every barrier.
type Report struct {
	Seed                 int64
	Sites, Items, Rounds int

	// Fault actions actually applied (a scheduled crash of an
	// already-down site, say, does not count). FlushCrashes counts
	// crash-in-flush traps that actually fired (armed traps whose site
	// never flushed again don't); CheckpointCrashes counts
	// crash-in-checkpoint traps that fired (site killed between the
	// checkpoint record and the compaction behind it). Fired traps of
	// either kind also count as Crashes.
	Crashes, Restarts, Partitions, Heals, LinkFlaps, Checkpoints, FlushCrashes, CheckpointCrashes int

	// PeerOutages counts applied EvPeerDown events (each also counts
	// as a Crash); DegradedBarriers counts round barriers crossed with
	// a site still held down — those run the outage bounds instead of
	// the invariant families, so across a run InvariantChecks +
	// DegradedBarriers == Rounds.
	PeerOutages, DegradedBarriers int

	// Workload outcomes.
	Committed, Aborted int

	// RebalanceTransfers is the cumulative Rds transfer count the
	// demand rebalancers issued across the run (read at the final
	// barrier's anti-thrash check).
	RebalanceTransfers int

	// InvariantChecks counts completed barrier passes (each pass runs
	// all seven invariant families).
	InvariantChecks int

	// Trace is the full event trace, replayable alongside the
	// schedule.
	Trace []string

	// FlightDump holds the flight recorder's most recent structured
	// events, captured at the moment a barrier's invariant check
	// failed (empty on clean runs). Where Trace records what the
	// harness did to the cluster, the flight dump records what the
	// cluster was doing to itself — lock conflicts, rebalancer
	// decisions, group-commit flushes, Vm deferrals — in the window
	// leading up to the violation.
	FlightDump []string
}

// String is a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"seed=%d sites=%d items=%d rounds=%d crashes=%d (in-flush=%d in-ckpt=%d) restarts=%d partitions=%d heals=%d flaps=%d ckpts=%d outages=%d committed=%d aborted=%d rebal=%d checks=%d degraded=%d",
		r.Seed, r.Sites, r.Items, r.Rounds,
		r.Crashes, r.FlushCrashes, r.CheckpointCrashes, r.Restarts, r.Partitions, r.Heals, r.LinkFlaps, r.Checkpoints, r.PeerOutages,
		r.Committed, r.Aborted, r.RebalanceTransfers, r.InvariantChecks, r.DegradedBarriers)
}

// TraceString renders the event trace, one line per event.
func (r *Report) TraceString() string {
	return strings.Join(r.Trace, "\n")
}

// FlightString renders the captured flight-recorder dump, one event
// per line ("" when no violation occurred).
func (r *Report) FlightString() string {
	return strings.Join(r.FlightDump, "\n")
}

// runner carries one run's live state.
type runner struct {
	sched *Schedule
	opt   Options
	c     *dvp.Cluster
	items []string

	// initial holds the per-item starting totals (Γ per item).
	initial map[string]int64

	mu          sync.Mutex
	report      *Report
	committed   []dvp.CommitInfo
	rds         []dvp.RdsInfo
	downedLinks map[[2]int]bool
	start       time.Time

	// Long-outage state (EvPeerDown): heldDown maps a dead site to the
	// barrier round that releases it; outageStart remembers when it
	// went down and outageBase each survivor's retransmission-sweep
	// count toward it at that instant, so the degraded barriers can
	// bound the sweep *rate* over the outage window.
	heldDown    map[int]int
	outageStart map[int]time.Time
	outageBase  map[int]map[int]uint64

	// Crash-in-flush machinery: hooksLive gates armed flush traps (the
	// barrier clears it before disarming, so a trap firing during the
	// barrier is a no-op), crashWG tracks in-flight trap crashes so the
	// barrier can join them before restarting sites.
	hooksLive bool
	crashWG   sync.WaitGroup

	// eventErr is the first violation an event-time audit caught — one
	// checked inside the OnCommit hook or the network tap, the moment
	// the reply or the Vm leaves, rather than at a barrier. The next
	// barrier reports it. creates indexes the Vm each site's stable log
	// has created, for the wire audit (see checkVmAfterLog).
	eventErr error
	creates  createIndex
}

// Run executes the schedule and checks the global invariants at every
// round barrier. The returned report is always non-nil; a non-nil
// error names the first invariant violation (the report's trace then
// reproduces the scenario together with the schedule).
func Run(sched *Schedule, opt Options) (*Report, error) {
	r := &runner{
		sched: sched,
		opt:   opt,
		report: &Report{
			Seed:  sched.Seed,
			Sites: sched.Sites,
			Items: sched.Items,
		},
		initial:     make(map[string]int64),
		downedLinks: make(map[[2]int]bool),
		heldDown:    make(map[int]int),
		outageStart: make(map[int]time.Time),
		outageBase:  make(map[int]map[int]uint64),
		start:       time.Now(),
		creates:     createIndex{sites: make(map[ident.SiteID]*siteCreates)},
	}
	c, err := dvp.NewCluster(dvp.Config{
		Sites:           sched.Sites,
		Seed:            sched.Seed,
		MaxDelay:        maxDelay,
		LossProb:        baseLoss,
		DupProb:         baseDup,
		RetransmitEvery: retransmitEvery,
		DefaultTimeout:  txnTimeout,
		// The flight recorder runs through every chaos run; its dump is
		// the first artifact a violation produces (Report.FlightDump).
		FlightBuf: 4096,
		// Automatic checkpointing is part of the system under test:
		// the checkpointer compacts logs behind the workload's back,
		// and every crash-recovery cycle the schedule forces replays
		// the suffix the way a deployed node does. The barrier pauses
		// the checkpointer only across its checks.
		CheckpointEveryRecords: 256,
		// The demand rebalancer gossips adverts and ships surplus over
		// the same faulty network the workload runs on; the barrier's
		// anti-thrash invariant bounds its transfer volume once faults
		// heal and demand decays.
		Rebalance: dvp.RebalanceOptions{
			Enabled:     true,
			Interval:    rebalInterval,
			HalfLife:    rebalHalfLife,
			AdvertStale: 5 * rebalInterval,
		},
		OnCommit: func(ci dvp.CommitInfo) {
			r.checkReplyAfterLog(ci)
			r.mu.Lock()
			r.committed = append(r.committed, ci)
			r.mu.Unlock()
		},
		// Every redistribution half (Vm-create deduct, Vm-accept
		// credit) joins the serializability replay at its own stamp —
		// without them, a full read that correctly observes value in
		// flight between the halves looks like a violation.
		OnRds: func(ri dvp.RdsInfo) {
			r.mu.Lock()
			r.rds = append(r.rds, ri)
			r.mu.Unlock()
		},
	})
	if err != nil {
		return r.report, err
	}
	r.c = c
	defer c.Close()
	// Every frame passes the wire audit (a Vm may not leave ahead of its
	// create record), then the caller's tap.
	c.Net().SetTap(func(from, to ident.SiteID, kind wire.Kind, frame []byte) {
		r.checkVmAfterLog(from, kind, frame)
		if opt.Tap != nil {
			opt.Tap(from, to, kind, frame)
		}
	})

	for k := 0; k < sched.Items; k++ {
		item := fmt.Sprintf("item/%d", k)
		r.items = append(r.items, item)
		if err := c.CreateItem(item, dvp.Value(sched.Total)); err != nil {
			return r.report, err
		}
		r.initial[item] = sched.Total
	}

	for round := 1; round <= sched.Rounds; round++ {
		r.report.Rounds = round
		r.tracef("round %d: begin (%d events)", round, len(r.sched.eventsIn(round)))
		r.runRound(round)
		if err := r.barrier(round); err != nil {
			r.captureFlight()
			return r.report, fmt.Errorf("chaos seed %d round %d: %w", sched.Seed, round, err)
		}
	}
	if opt.OnQuiescent != nil {
		opt.OnQuiescent(c)
	}
	r.tracef("run complete: %s", r.report)
	return r.report, nil
}

// captureFlight copies the flight recorder's recent events into the
// report — called exactly once, when a barrier's invariant check
// fails, so the dump shows the window leading up to the violation.
func (r *runner) captureFlight() {
	f := r.c.Flight()
	if f == nil {
		return
	}
	for _, ev := range f.Last(2048) {
		r.report.FlightDump = append(r.report.FlightDump, ev.String())
	}
}

// runRound schedules the round's fault events on the network clock and
// drives the concurrent workload until the round deadline, then joins
// both.
func (r *runner) runRound(round int) {
	deadline := time.Now().Add(time.Duration(r.sched.RoundMS) * time.Millisecond)

	r.mu.Lock()
	r.hooksLive = true
	r.mu.Unlock()

	var events sync.WaitGroup
	for _, e := range r.sched.eventsIn(round) {
		e := e
		events.Add(1)
		r.c.Net().ScheduleAfter(time.Duration(e.AtMS)*time.Millisecond, func() {
			defer events.Done()
			r.apply(round, e)
		})
	}

	var workers sync.WaitGroup
	for i := 1; i <= r.sched.Sites; i++ {
		workers.Add(1)
		go func(site int) {
			defer workers.Done()
			r.workload(round, site, deadline)
		}(i)
	}
	workers.Wait()
	events.Wait()
}

// workload issues randomized transactions at one site until the round
// deadline. The op stream is a pure function of (seed, round, site);
// how far into the stream the round gets depends on timing, which is
// fine — the schedule, not the workload prefix, is the reproduction
// contract.
func (r *runner) workload(round, site int, deadline time.Time) {
	rng := rand.New(rand.NewSource(
		r.sched.Seed*7919 + int64(round)*1000003 + int64(site)*104729))
	h := r.c.At(site)
	for time.Now().Before(deadline) {
		item := r.items[rng.Intn(len(r.items))]
		var res *dvp.Result
		p := rng.Float64()
		switch {
		case p < 0.06:
			res = h.Run(dvp.NewTxn().Read(item).Label("audit"))
		case p < 0.34:
			res = h.Run(dvp.NewTxn().Add(item, dvp.Value(1+rng.Intn(3))).Label("cancel"))
		case p < 0.44 && len(r.items) > 1:
			// Transfer between two distinct items.
			k := rng.Intn(len(r.items) - 1)
			other := r.items[(k+1)%len(r.items)]
			if other == item {
				other = r.items[k]
			}
			n := dvp.Value(1 + rng.Intn(3))
			res = h.Run(dvp.NewTxn().Sub(item, n).Add(other, n).Label("transfer"))
		default:
			// Reserves skew large enough to force redistribution.
			res = h.Run(dvp.NewTxn().Sub(item, dvp.Value(1+rng.Intn(8))).Label("reserve"))
		}
		r.mu.Lock()
		if res.Committed() {
			r.report.Committed++
		} else {
			r.report.Aborted++
		}
		r.mu.Unlock()
		// Pace: bounds the round's op count and keeps serializability
		// replay cheap.
		time.Sleep(time.Duration(400+rng.Intn(800)) * time.Microsecond)
	}
}

// apply executes one fault event against the live cluster.
func (r *runner) apply(round int, e Event) {
	applied := true
	switch e.Kind {
	case EvCrash:
		if r.c.SiteUp(e.Site) {
			r.c.Crash(e.Site)
			r.count(func(rep *Report) { rep.Crashes++ })
		} else {
			applied = false
		}
	case EvRestart:
		// A held-down site (EvPeerDown) must stay dead until its
		// release barrier; only ordinarily crashed sites restart here.
		if !r.c.SiteUp(e.Site) && !r.held(e.Site) {
			if err := r.c.Restart(e.Site); err != nil {
				r.tracef("r%d %s FAILED: %v", round, e, err)
				return
			}
			r.count(func(rep *Report) { rep.Restarts++ })
		} else {
			applied = false
		}
	case EvPartition:
		groups := make([][]int, len(e.Groups))
		copy(groups, e.Groups)
		r.c.PartitionGroups(groups...)
		r.count(func(rep *Report) { rep.Partitions++ })
	case EvHeal:
		r.c.Heal()
		r.count(func(rep *Report) { rep.Heals++ })
	case EvLinkDown:
		r.c.SetLink(e.A, e.B, false)
		r.c.SetLink(e.B, e.A, false)
		r.mu.Lock()
		r.downedLinks[[2]int{e.A, e.B}] = true
		r.report.LinkFlaps++
		r.mu.Unlock()
	case EvLinkUp:
		r.c.SetLink(e.A, e.B, true)
		r.c.SetLink(e.B, e.A, true)
		r.mu.Lock()
		delete(r.downedLinks, [2]int{e.A, e.B})
		r.mu.Unlock()
	case EvLoss:
		r.c.SetLoss(e.P)
	case EvDup:
		r.c.SetDup(e.P)
	case EvCheckpoint:
		if r.c.SiteUp(e.Site) {
			if err := r.c.Checkpoint(e.Site); err != nil {
				r.tracef("r%d %s FAILED: %v", round, e, err)
				return
			}
			r.count(func(rep *Report) { rep.Checkpoints++ })
		} else {
			applied = false
		}
	case EvCrashInFlush:
		if !r.c.SiteUp(e.Site) {
			applied = false
			break
		}
		// The hook runs at the start of a flush window (before the
		// force-write) on the goroutine running the force — the flusher,
		// or a committer forcing inline — which the crash's lifecycle
		// fence waits for: it may only launch the crash.
		fire := r.crashTrap(e.Site, func(rep *Report) { rep.FlushCrashes++ })
		r.c.GroupLog(e.Site).SetFlushHook(func(batch int) {
			fire("r%d crash-in-flush fired: site %d killed inside a %d-record flush window",
				round, e.Site, batch)
		})
	case EvCrashInCheckpoint:
		if !r.c.SiteUp(e.Site) {
			applied = false
			break
		}
		// The hook runs inside Checkpoint — checkpoint record stable,
		// compaction not yet done — on whichever goroutine triggered it
		// (here, or the site's own checkpointer loop), holding the
		// admission stripes the crash's lifecycle fence may wait on. So
		// it only launches the crash and returns an error, which makes
		// Checkpoint skip the compaction — exactly the state a real crash
		// in that window leaves behind.
		fire := r.crashTrap(e.Site, func(rep *Report) { rep.CheckpointCrashes++ })
		r.c.SiteEngine(e.Site).SetCheckpointHook(func(stage string) error {
			if fire("r%d crash-in-checkpoint fired: site %d killed at %s, checkpoint written but not compacted",
				round, e.Site, stage) {
				return fmt.Errorf("chaos: crash-in-checkpoint trap fired")
			}
			return nil
		})
		// Trigger a checkpoint now rather than waiting for the record
		// threshold, so the trap fires deterministically mid-round. The
		// trap's error surfacing here is the expected outcome.
		if err := r.c.Checkpoint(e.Site); err != nil {
			r.tracef("r%d %s: checkpoint cut short by trap: %v", round, e, err)
		}
	case EvPeerDown:
		if r.held(e.Site) {
			applied = false
			break
		}
		until := round + e.A
		if until > r.sched.Rounds {
			// The final barrier always runs with everyone up.
			until = r.sched.Rounds
		}
		// A site some earlier fault already killed just stays dead —
		// the hold extends the corpse's lifetime, the crash was
		// already counted.
		wasUp := r.c.SiteUp(e.Site)
		if wasUp {
			r.c.Crash(e.Site)
		}
		// Baseline each survivor's sweep count toward the dead peer:
		// the degraded barriers bound the delta over the outage window.
		base := make(map[int]uint64, r.sched.Sites-1)
		for i := 1; i <= r.sched.Sites; i++ {
			if i == e.Site {
				continue
			}
			base[i] = r.c.SiteEngine(i).VM().Sweeps(ident.SiteID(e.Site))
		}
		r.mu.Lock()
		r.heldDown[e.Site] = until
		r.outageStart[e.Site] = time.Now()
		r.outageBase[e.Site] = base
		if wasUp {
			r.report.Crashes++
		}
		r.report.PeerOutages++
		r.mu.Unlock()
		r.tracef("r%d peer-down: site %d held dead through barrier %d", round, e.Site, until)
	}
	if applied {
		r.tracef("r%d +%dms %s", round, e.AtMS, e)
	} else {
		r.tracef("r%d +%dms %s (no-op)", round, e.AtMS, e)
	}
}

// crashTrap returns a one-shot trap that crashes site from inside a
// hook. The first time it fires while the round's hooks are live, it
// launches the crash on a fresh goroutine the barrier joins — the hook's
// own goroutine holds what the crash waits for — which counts the crash
// with tally and traces it, and it reports true. Any later call does
// nothing and reports false.
func (r *runner) crashTrap(site int, tally func(*Report)) func(format string, args ...any) bool {
	var once sync.Once
	return func(format string, args ...any) bool {
		fired := false
		once.Do(func() {
			r.mu.Lock()
			fired = r.hooksLive
			if fired {
				r.crashWG.Add(1)
			}
			r.mu.Unlock()
			if !fired {
				return
			}
			go func() {
				defer r.crashWG.Done()
				if !r.c.SiteUp(site) {
					return
				}
				r.c.Crash(site)
				r.count(func(rep *Report) {
					rep.Crashes++
					tally(rep)
				})
				r.tracef(format, args...)
			}()
		})
		return fired
	}
}

// barrier restores the cluster to a fully connected, fully up,
// quiescent state and checks every global invariant. Mid-run checks
// happen here: once per round, not only at the end of the run.
func (r *runner) barrier(round int) error {
	// Whatever the round's replies and Vm broke as they left comes first.
	if err := r.eventViolation(); err != nil {
		return err
	}
	// Disarm flush and checkpoint traps and join any crash they already
	// launched — after this, no trap can kill a site the barrier just
	// restarted.
	r.mu.Lock()
	r.hooksLive = false
	r.mu.Unlock()
	for i := 1; i <= r.sched.Sites; i++ {
		r.c.GroupLog(i).SetFlushHook(nil)
		r.c.SiteEngine(i).SetCheckpointHook(nil)
	}
	r.crashWG.Wait()

	// Heal whatever the round left broken.
	r.c.Heal()
	r.count(func(rep *Report) { rep.Heals++ })
	r.mu.Lock()
	links := make([][2]int, 0, len(r.downedLinks))
	for l := range r.downedLinks {
		links = append(links, l)
	}
	r.downedLinks = make(map[[2]int]bool)
	r.mu.Unlock()
	for _, l := range links {
		r.c.SetLink(l[0], l[1], true)
		r.c.SetLink(l[1], l[0], true)
	}
	r.c.SetLoss(baseLoss)
	r.c.SetDup(baseDup)

	// Long outages first: bound-check every held site's survivors
	// while the outage is still in force, then release the sites whose
	// hold expires at this barrier (they restart with everyone else
	// below; the ones still held skip the restart loop).
	r.mu.Lock()
	heldNow := make([]int, 0, len(r.heldDown))
	for s := range r.heldDown {
		heldNow = append(heldNow, s)
	}
	r.mu.Unlock()
	for _, s := range heldNow {
		if err := r.checkPeerOutageBounds(round, s); err != nil {
			return err
		}
	}
	r.mu.Lock()
	stillHeld := 0
	var released []int
	for s, until := range r.heldDown {
		if until <= round {
			delete(r.heldDown, s)
			delete(r.outageStart, s)
			delete(r.outageBase, s)
			released = append(released, s)
		} else {
			stillHeld++
		}
	}
	r.mu.Unlock()
	for _, s := range released {
		r.tracef("r%d barrier: outage over, releasing site %d", round, s)
	}

	// Restart every crashed site through full §7 recovery — except the
	// ones a live outage still holds down.
	for i := 1; i <= r.sched.Sites; i++ {
		if r.held(i) {
			continue
		}
		if !r.c.SiteUp(i) {
			if err := r.c.Restart(i); err != nil {
				return fmt.Errorf("barrier restart site %d: %w", i, err)
			}
			r.count(func(rep *Report) { rep.Restarts++ })
			r.tracef("r%d barrier: restarted site %d", round, i)
		}
	}

	// Freeze the automatic checkpointers (joining any in-flight run)
	// before the first log audit: the audits compare logs against live
	// state and group-commit waiter counts, and recovery's rebuild reads
	// a log twice — a checkpoint appending a record or compacting the
	// log in between would move them under the audit.
	r.c.SetCheckpointPaused(true)
	defer r.c.SetCheckpointPaused(false)

	// A barrier crossed mid-outage is degraded: the drain and the
	// invariant families need the full mesh (global conservation sums
	// every site's quota; the drain retransmits into a black hole), so
	// they wait for the release barrier. The outage bounds above and
	// the one audit that needs neither — no ack ahead of the log — are
	// this barrier's whole check.
	if stillHeld > 0 {
		audits, err := r.auditLogs()
		if err != nil {
			return err
		}
		if err := r.checkNoAckAheadOfLog(audits); err != nil {
			return err
		}
		r.count(func(rep *Report) { rep.DegradedBarriers++ })
		r.tracef("r%d barrier: degraded (%d site(s) held down), outage bounds hold", round, stillHeld)
		return nil
	}

	// Anti-thrash invariant: with faults healed and the workload
	// stopped, the demand rebalancers must go quiet on their own —
	// still live, before they are paused. Only then freeze them so
	// the remaining checks read stable quota snapshots (the defer keeps
	// the pause scoped to this barrier).
	if err := r.checkRebalanceQuiet(round); err != nil {
		return err
	}
	r.c.SetRebalancePaused(true)
	defer r.c.SetRebalancePaused(false)

	// Drain: all in-flight traffic delivered, no Vm awaiting
	// retransmission anywhere.
	r.c.Quiesce(quiesceBound)
	if n := r.pendingVm(); n != 0 {
		return fmt.Errorf("failed to drain: %d Vm still pending after %v", n, quiesceBound)
	}

	if r.opt.Sabotage != nil && round == r.sched.Rounds {
		r.opt.Sabotage(r.c)
		r.tracef("r%d barrier: sabotage injected", round)
	}
	if err := r.checkInvariants(); err != nil {
		return err
	}
	r.count(func(rep *Report) { rep.InvariantChecks++ })
	r.tracef("r%d barrier: all invariants hold", round)
	return nil
}

// held reports whether site is currently held down by a live
// EvPeerDown outage.
func (r *runner) held(site int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.heldDown[site]
	return ok
}

// checkPeerOutageBounds enforces the long-outage invariants for one
// held-down site: every survivor's retransmission set toward it stays
// bounded (no unbounded growth from talking to a corpse), and the
// survivor's sweep count over the outage window stays rate-bounded —
// the adaptive backoff must have stretched sweeps toward the cap
// (retransmitMax), far below the one-per-tick rate the fixed
// retransmit interval would produce. The sweep allowance scales with
// the measured wall-clock window so a slow host can't false-positive:
// 5 sweeps of doubling headroom plus 2 per retransmitMax elapsed,
// against elapsed/retransmitEvery (vmsg.RetransmitCap times more)
// unthrottled.
func (r *runner) checkPeerOutageBounds(round, down int) error {
	r.mu.Lock()
	start := r.outageStart[down]
	base := r.outageBase[down]
	r.mu.Unlock()
	elapsed := time.Since(start)
	allowed := uint64(5 + 2*int(elapsed/retransmitMax))
	for i := 1; i <= r.sched.Sites; i++ {
		if i == down {
			continue
		}
		vm := r.c.SiteEngine(i).VM()
		if n := vm.PendingCount(ident.SiteID(down)); n > maxOutagePending {
			return fmt.Errorf("peer-down bounds: site %d holds %d pending Vm toward dead site %d (bound %d)",
				i, n, down, maxOutagePending)
		}
		fired := vm.Sweeps(ident.SiteID(down))
		delta := fired - base[i]
		if fired < base[i] {
			// The survivor itself crashed and restarted during the
			// outage: its rebuilt Vm manager counts from zero, so the
			// whole new count is the window's delta.
			delta = fired
		}
		if delta > allowed {
			return fmt.Errorf("peer-down bounds: site %d fired %d retransmission sweeps toward dead site %d in %v (bound %d — backoff not engaging)",
				i, delta, down, elapsed.Round(time.Millisecond), allowed)
		}
	}
	r.tracef("r%d outage bounds hold for dead site %d (%v down)", round, down, elapsed.Round(time.Millisecond))
	return nil
}

// pendingVm counts outbound Vm not yet cumulatively acked, across all
// sites.
func (r *runner) pendingVm() int {
	n := 0
	for i := 1; i <= r.sched.Sites; i++ {
		n += len(r.c.SiteEngine(i).VM().PendingAll())
	}
	return n
}

// count applies a report mutation under the lock.
func (r *runner) count(f func(*Report)) {
	r.mu.Lock()
	f(r.report)
	r.mu.Unlock()
}

// tracef appends a timestamped line to the trace.
func (r *runner) tracef(format string, args ...any) {
	line := fmt.Sprintf("[%6.0fms] ", float64(time.Since(r.start).Microseconds())/1000) +
		fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.report.Trace = append(r.report.Trace, line)
	w := r.opt.Trace
	r.mu.Unlock()
	if w != nil {
		fmt.Fprintln(w, line)
	}
}
