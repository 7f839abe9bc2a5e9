package site

import (
	"fmt"
	"sync"

	"dvp/internal/recovery"
)

// This file is the lifecycle core: Start, Crash, Restart and the epoch
// transitions they drive. It is the only place s.mu may be acquired —
// check.sh's site-mutex gate enforces that textually — so everything
// the hot paths need about liveness is mirrored into epochUp and read
// lock-free via currentEpoch/sameEpoch/Up below.

// recover rebuilds volatile state from the stable log (§7). The
// volatile objects are reset in place, never replaced. The per-item
// state needs nothing here: it is mutated only while the site is up,
// and Crash swept it (clearItems).
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
	s.obsm.recoverLat.Record(sum.Elapsed)
	s.obsm.recoverRecords.Add(uint64(sum.RecordsScanned))
	s.obsm.flight.Recordf(s.obsm.site, "recover",
		"cp=%d skipped=%d scanned=%d redone=%d elapsed=%s",
		sum.CheckpointLSN, sum.CheckpointsSkipped, sum.RecordsScanned,
		sum.ActionsRedone, sum.Elapsed)
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

// Start attaches the site to the network and begins the epoch's loops:
// Vm retransmission, and the rebalancer and checkpointer when
// configured. Idempotent while up.
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
	s.obsm.flight.Recordf(s.obsm.site, "site-up", "epoch=%d", epoch)
}

// Crash kills the site: volatile state is lost, in-progress
// transactions abort (as seen by their clients), the network handler
// detaches. The stable log and durable store survive.
func (s *Site) Crash() {
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return
	}
	s.up = false
	epoch := s.epoch
	s.epochUp.Store(epoch << 1)
	close(s.stop)
	loops := s.loops
	s.stop, s.loops = nil, nil
	s.mu.Unlock()

	s.cfg.Endpoint.Close()
	// Fence: once the write lock is held, no message handler is
	// mid-flight, so nothing further reaches the log or store.
	s.lifeMu.Lock()
	s.lifeMu.Unlock() // empty critical section is the fence (SA2001, excluded in staticcheck.conf)
	// Join the epoch's loops.
	loops.Wait()
	// Acceptances credited at enqueue ask for no force, and the fence
	// does not wait for one that nobody asked for: ask for it here,
	// where no new acceptance can be made, so that once Crash returns
	// nothing applied is missing from the log (a failed force stops the
	// site as accept-force).
	s.forceAccepts()
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
	// One flight event per epoch transition.
	s.obsm.flight.Recordf(s.obsm.site, "site-down",
		"epoch=%d waiters=%d parked_dropped=%d", epoch, len(ws), parked)
}

// failStop stops the site on an error it cannot run on beside: count
// it, flight-record it, and crash through the lifecycle so §7 recovery
// takes over — the paper's own failure model. The crash comes from a
// fresh goroutine because callers sit under lifeMu's read side, which
// Crash's fence waits out. A process restarts from its log (dvpnode
// exits on FailStopped); this object does not restart, see Restart.
func (s *Site) failStop(reason string, err error) {
	if c := s.obsm.failStops[reason]; c != nil {
		c.Inc()
	}
	s.obsm.flight.Recordf(s.obsm.site, "fail-stop", "reason=%s err=%v", reason, err)
	s.failOnce.Do(func() {
		s.failErr = fmt.Errorf("site %v: fail-stop (%s): %w", s.cfg.ID, reason, err)
		close(s.failed)
		go s.Crash()
	})
}

// FailStopped is closed once the site has stopped itself on an
// internal error; FailStopErr then says which.
func (s *Site) FailStopped() <-chan struct{} { return s.failed }

// FailStopErr returns the error the site stopped itself on, or nil.
func (s *Site) FailStopErr() error {
	select {
	case <-s.failed:
		return s.failErr
	default:
		return nil
	}
}

// Restart recovers from the stable log and rejoins the network,
// without talking to any other site. A site that stopped itself does
// not restart in place: in this model the store object survives the
// crash like disk pages, and a fail-stop may have left it holding
// credits whose acceptance records never reached the log — redo over
// such a store would not reproduce what the log says. A real process
// has no such store; it replays the log into an empty one.
func (s *Site) Restart() error {
	if err := s.FailStopErr(); err != nil {
		return fmt.Errorf("restart refused, store may be ahead of the log: %w", err)
	}
	s.mu.Lock()
	if s.up {
		s.mu.Unlock()
		return fmt.Errorf("site %v: restart while up", s.cfg.ID)
	}
	s.mu.Unlock()
	if err := s.recover(); err != nil {
		return err
	}
	s.Start()
	return nil
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
