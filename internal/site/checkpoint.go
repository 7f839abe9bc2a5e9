package site

import (
	"fmt"

	"dvp/internal/wal"
)

// This file is the checkpoint/compaction half of the durability layer:
// the quiescent-cut Checkpoint, the record-count trigger fed by
// enqueueApply (admission.go), and the background loop that runs it.

// CheckpointStagePreCompact is the hook stage fired after the
// checkpoint record is durably appended but before the log is
// compacted behind it — the window where a crash leaves a usable
// checkpoint atop an uncompacted log.
const CheckpointStagePreCompact = "pre-compact"

// Checkpoint writes a checkpoint record capturing store and Vm state,
// bounding future recovery scans (§7), then compacts the log: records
// before the checkpoint are no longer needed (the checkpoint carries
// the store snapshot, channel cursors, pending Vm and clock).
//
// Every stripe makes the cut exact: every enqueue+apply pair runs
// under the stripes of its items, so with all of them held the image
// is exactly the records below the checkpoint's LSN — every record
// below the compaction horizon is in it, and replay starts into it. The
// record takes the one durable-write path under lifeMu's read side, as
// every writer that waits does; a force that fails stops the site
// (checkpoint-force). A site that is down takes none.
func (s *Site) Checkpoint() error { return s.checkpoint(false) }

// checkpoint is Checkpoint, or with auto the automatic checkpointer's,
// which a pause seen under lifeMu's read side skips.
func (s *Site) checkpoint(auto bool) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.Up() {
		return fmt.Errorf("site %v: checkpoint while down", s.cfg.ID)
	}
	if auto && s.ckptPaused.Load() {
		return nil // a later append past the threshold re-kicks
	}
	// Deferred before the stripes are taken, so it runs once they are
	// let go: the acceptances the checkpoint's force carried are
	// settled outside them.
	var forced uint64
	defer func() { s.settleAccepts(forced, nil) }()
	all := uint64(1)<<len(s.stripes) - 1
	s.lockStripes(all)
	defer s.unlockStripes(all)
	rec := &wal.CheckpointRec{
		Items:    s.cfg.DB.Snapshot(),
		Channels: s.vm.SnapshotChannels(),
		Clock:    s.lamport.Claimed(),
	}
	d, err := s.enqueueApply(wal.RecCheckpoint, rec.EncodeTo, nil, nil)
	if err != nil {
		return err
	}
	size := d.w.Len()
	if err := s.waitForce(&d); err != nil {
		return err
	}
	forced = d.lsn
	// A reservation claimed after the cut read the clock may have
	// enqueued its record below the checkpoint, where the compaction
	// would drop it: it is logged again above, before that can happen.
	if b := s.lamport.Claimed(); b > rec.Clock {
		if err := s.logReservation(b); err != nil {
			return err
		}
	}
	// The record is durable: restart the growth counter even if the
	// compaction below is skipped or fails — recovery can already use
	// this checkpoint.
	s.ckptRecs.Store(0)
	s.obsm.ckptTotal.Inc()
	s.obsm.ckptBytes.Add(uint64(size))
	s.obsm.flight.Recordf(s.obsm.site, "checkpoint", "lsn=%d bytes=%d items=%d", d.lsn, size, len(rec.Items))
	if h := s.checkpointHook(); h != nil {
		if err := h(CheckpointStagePreCompact); err != nil {
			return fmt.Errorf("site %v: checkpoint %s hook: %w", s.cfg.ID, CheckpointStagePreCompact, err)
		}
	}
	return s.cfg.Log.Compact(d.lsn - 1)
}

// autoCheckpoint reports whether the automatic checkpointer is armed.
func (s *Site) autoCheckpoint() bool {
	return s.cfg.CheckpointEveryRecords > 0
}

// noteAppend bumps the since-last-checkpoint record count and kicks
// the checkpointer goroutine when the threshold is crossed. The kick
// channel has one slot and drops when full: the loop coalesces bursts
// into one checkpoint, and a missed kick re-arms on the next append.
func (s *Site) noteAppend() {
	if !s.autoCheckpoint() {
		return
	}
	if s.ckptRecs.Add(1) >= int64(s.cfg.CheckpointEveryRecords) {
		select {
		case s.ckptKick <- struct{}{}:
		default:
		}
	}
}

// checkpointLoop runs automatic checkpoints. It cannot run inline in
// the append paths — an appender holds its stripe, and Checkpoint needs
// every stripe — so threshold crossings kick this goroutine instead. It
// starts and stops with the site.
func (s *Site) checkpointLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-s.ckptKick:
		}
		if err := s.checkpoint(true); err != nil {
			s.obsm.flight.Recordf(s.obsm.site, "checkpoint-failed", "err=%v", err)
		}
	}
}

// SetCheckpointPaused gates the automatic checkpointer. Pausing joins
// any checkpoint in flight, so after the call no background compaction
// is running or will start — fault harnesses pause it across barrier
// audits that compare log and store. The flag survives crashes.
func (s *Site) SetCheckpointPaused(p bool) {
	s.ckptPaused.Store(p)
	if p {
		s.fence()
	}
}

// SetCheckpointHook installs a hook invoked at named stages inside
// Checkpoint (see CheckpointStagePreCompact). A hook returning an
// error makes Checkpoint return without compacting. Hooks must not
// block on site lifecycle transitions: Checkpoint holds every stripe
// while the hook runs, so a hook that wants to crash the site must do
// so from a fresh goroutine and return.
func (s *Site) SetCheckpointHook(h func(stage string) error) {
	s.ckptHookMu.Lock()
	s.ckptHook = h
	s.ckptHookMu.Unlock()
}

func (s *Site) checkpointHook() func(stage string) error {
	s.ckptHookMu.Lock()
	defer s.ckptHookMu.Unlock()
	return s.ckptHook
}
