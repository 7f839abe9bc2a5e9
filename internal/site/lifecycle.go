package site

import (
	"fmt"
	"sync"

	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/tstamp"
	"dvp/internal/wire"
)

// This file is the lifecycle core: Start, Crash, Restart and the epoch
// transitions they drive. It is the only place s.mu may be acquired —
// check.sh's site-mutex gate enforces that textually — so everything
// the hot paths need about liveness is mirrored into epochUp and read
// lock-free via currentEpoch/sameEpoch/Up below.

// recover rebuilds the site from the stable log (§7): the clock, the
// Vm manager, the demand cells and the store, each reset in place,
// never replaced, the stamp floor, set at the reservation recovery
// resumed from, and the item ordinals, as the log defines them, with
// the counter above the highest. The rest of the per-item state needs
// nothing here: it is mutated only while the site is up, and Crash
// swept it (clearItems).
func (s *Site) recover() error {
	s.lamport.Reset()
	s.vm.Reset()
	s.demand.reset()
	sum, err := recovery.Recover(s.cfg.Log, s.cfg.DB, s.vm, s.lamport)
	if err != nil {
		return fmt.Errorf("site %v: %w", s.cfg.ID, err)
	}
	if sum.NetworkCalls != 0 {
		return fmt.Errorf("site %v: recovery made %d network calls", s.cfg.ID, sum.NetworkCalls)
	}
	s.floor = tstamp.Ceil(sum.Clock)
	var top uint64
	sum.Names.Each(func(ord uint64, item ident.ItemID) {
		stripe, st := s.lockItem(item)
		st.ord = ord
		stripe.Unlock()
		top = max(top, ord)
	})
	s.ords.Store(top)
	s.obsm.recoverLat.Record(sum.Elapsed)
	s.obsm.recoverRecords.Add(uint64(sum.RecordsScanned))
	s.obsm.flight.Recordf(s.obsm.site, "recover",
		"cp=%d skipped=%d scanned=%d redone=%d clock=%d elapsed=%s",
		sum.CheckpointLSN, sum.CheckpointsSkipped, sum.RecordsScanned,
		sum.ActionsRedone, sum.Clock, sum.Elapsed)
	s.mu.Lock()
	s.lastRec = sum
	s.mu.Unlock()
	return nil
}

// LastRecovery reports what the most recent recovery pass did —
// experiment T3's per-site evidence that restart is independent and
// bounded by the log suffix.
func (s *Site) LastRecovery() recovery.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRec
}

// Start reserves the clock, attaches the site to the network, begins
// the epoch's loops — Vm retransmission, and the rebalancer and
// checkpointer when configured — and acks every peer. Idempotent while
// up.
func (s *Site) Start() {
	s.mu.Lock()
	if s.up {
		s.mu.Unlock()
		return
	}
	s.up = true
	s.epoch++
	epoch := s.epoch
	s.epochUp.Store(epoch<<1 | 1)
	run := []func(stop <-chan struct{}){s.retransmitLoop}
	if s.cfg.Rebalance.Enabled {
		run = append(run, s.rebalanceLoop)
	}
	if s.autoCheckpoint() {
		run = append(run, s.checkpointLoop)
	}
	// The join is this epoch's own, counted before anyone can see it:
	// the Crash that ends the epoch waits on exactly these loops.
	stop, loops := make(chan struct{}), new(sync.WaitGroup)
	loops.Add(len(run))
	s.stop, s.loops = stop, loops
	s.mu.Unlock()

	// Reserve the clock past the recovered one before the site takes
	// traffic, so that its first stamps wait for no force. A force that
	// fails stops the site (reserve); a log that refuses the record
	// leaves the clock unreserved, and every draw asks again.
	recovered := s.lamport.Bound() > 0
	s.lifeMu.RLock()
	_ = s.reserve(s.lamport.Current() + 1)
	s.lifeMu.RUnlock()

	s.cfg.Endpoint.SetHandler(s.handle)
	if err := s.cfg.Endpoint.Open(); err != nil {
		// A site that cannot attach would run on deaf: every ask would
		// time out and every Vm toward it pile up at its peers. Stop it
		// instead; the loops below start anyway, and the crash joins
		// them as it would on any other epoch.
		s.failStop("endpoint-open", err)
	}
	for _, loop := range run {
		go func() {
			defer loops.Done()
			loop(stop)
		}()
	}
	// Recovery floored every item's stamp at the reservation it resumed
	// from, and a peer whose clock lags it has its requests declined
	// until it hears from this site: a cumulative ack to every peer
	// carries the clock to them. A peer that misses it loses one
	// request, whose decline is answered with an ack (handleRequest).
	if recovered {
		for _, p := range s.peersExceptSelf() {
			s.sendAck(p)
		}
	}
	s.obsm.flight.Recordf(s.obsm.site, "site-up", "epoch=%d", epoch)
}

// Crash kills the site the way a process kill does: everything that
// is not in the forced log is lost (§7). In-progress transactions abort
// (as seen by their clients), the network handler detaches, the log's
// queue is dropped and Restart rebuilds the store from the log.
func (s *Site) Crash() { s.crash(s.epochUp.Load() >> 1) }

// crash ends epoch epoch, unless it has ended already.
func (s *Site) crash(epoch uint64) {
	s.mu.Lock()
	if !s.up || s.epoch != epoch {
		s.mu.Unlock()
		return
	}
	s.up = false
	s.epochUp.Store(epoch << 1)
	close(s.stop)
	loops := s.loops
	s.stop, s.loops = nil, nil
	s.halted = make(chan struct{})
	defer close(s.halted)
	s.mu.Unlock()

	s.cfg.Endpoint.Close()
	// Once the fence is passed, no message handler is mid-flight, so
	// nothing further reaches the log or store.
	s.fence()
	// Join the epoch's loops.
	loops.Wait()
	// Nobody waits on the log now (every writer that waits holds
	// lifeMu's read side), so its queue goes, as a process kill loses
	// it. An acceptance whose record went with it is lost, for its
	// sender to resend; one whose record landed is settled.
	unforced := s.cfg.Log.Reset()
	s.settleAccepts(s.cfg.Log.DurableLSN(), nil)
	for _, e := range s.takeAccepts(^uint64(0)) {
		wire.PutWriter(e.w)
		s.endHop(e.hop, "site-down")
	}
	// The per-item volatile state is gone — lock holders, parked Vm
	// (retransmission re-covers them), flow vectors, demand cells —
	// and recovery starts clean (§7). The same sweep finds the
	// transactions parked in this epoch; waking them fails them: they
	// observe the epoch change and report SiteDown. It runs behind the
	// fence, and Run installs its waiter before leaving the fence's
	// read side, so none is missed.
	ws, parked := s.clearItems(epoch)
	for _, w := range ws {
		w.wake()
	}
	// One flight event per epoch transition, with the records it lost.
	s.obsm.flight.Recordf(s.obsm.site, "site-down",
		"epoch=%d waiters=%d parked_dropped=%d unforced_dropped=%d", epoch, len(ws), parked, unforced)
}

// fence waits out everyone holding lifeMu's read side: every handler,
// transaction, transfer and checkpoint in flight.
func (s *Site) fence() {
	s.lifeMu.Lock()
	s.lifeMu.Unlock() // empty critical section is the fence (SA2001, excluded in staticcheck.conf)
}

// failStop stops the site on an error it cannot run on beside: count
// it, flight-record it, and crash the epoch it happened in through the
// lifecycle, so §7 recovery takes over — the paper's own failure
// model. The crash comes from a fresh goroutine because callers sit
// under lifeMu's read side, which Crash's fence waits out. The site
// then restarts like any other: from its log, into an emptied store.
func (s *Site) failStop(reason string, err error) {
	if c := s.obsm.failStops[reason]; c != nil {
		c.Inc()
	}
	s.obsm.flight.Recordf(s.obsm.site, "fail-stop", "reason=%s err=%v", reason, err)
	s.failOnce.Do(func() {
		s.failErr = fmt.Errorf("site %v: fail-stop (%s): %w", s.cfg.ID, reason, err)
		close(s.failed)
	})
	if epoch, up := s.currentEpoch(); up {
		go s.crash(epoch)
	}
}

// FailStopped is closed once the site has stopped itself on an
// internal error; FailStopErr then says which (the first, if a
// restarted site stopped itself again).
func (s *Site) FailStopped() <-chan struct{} { return s.failed }

// FailStopErr returns the error the site first stopped itself on, or
// nil.
func (s *Site) FailStopErr() error {
	select {
	case <-s.failed:
		return s.failErr
	default:
		return nil
	}
}

// Restart recovers from the stable log and rejoins the network,
// without talking to any other site.
func (s *Site) Restart() error {
	if s.awaitDown() {
		return fmt.Errorf("site %v: restart while up", s.cfg.ID)
	}
	if err := s.recover(); err != nil {
		return err
	}
	s.Start()
	return nil
}

// Close stops the site for good: it crashes it and closes its log.
func (s *Site) Close() error {
	s.Crash()
	s.awaitDown()
	return s.cfg.Log.Close()
}

// awaitDown reports whether the site is up and, if it is not, waits
// out the latest crash: one a fail-stop began may still be running.
func (s *Site) awaitDown() (up bool) {
	s.mu.Lock()
	up, halted := s.up, s.halted
	s.mu.Unlock()
	if !up && halted != nil {
		<-halted
	}
	return up
}

// Up reports whether the site is currently running (lock-free: the
// up bit lives in epochUp).
func (s *Site) Up() bool {
	return s.epochUp.Load()&1 == 1
}

// currentEpoch returns the epoch if up, or 0,false if down. Lock-free:
// both halves come from one epochUp load, so the pair is consistent.
func (s *Site) currentEpoch() (uint64, bool) {
	v := s.epochUp.Load()
	if v&1 == 0 {
		return 0, false
	}
	return v >> 1, true
}

// sameEpoch reports whether the site is up in exactly epoch e —
// the commit path's guard that no crash intervened since admission.
func (s *Site) sameEpoch(e uint64) bool {
	return s.epochUp.Load() == e<<1|1
}
