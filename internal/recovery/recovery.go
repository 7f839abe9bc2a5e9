// Package recovery implements the paper's §7 recovery algorithm. It
// is deliberately *independent*: it takes only the recovering site's
// own stable log and what it rebuilds — never a network handle — so
// the type system itself enforces "other sites need not be queried to
// find out any information to allow normal processing to begin".
//
// The algorithm:
//
//  1. Lock state is volatile and simply does not survive (the caller
//     starts with an empty lock table) — §7 argues this is safe.
//  2. Start from the last *valid* checkpoint's image — the store's
//     contents and Vm channel cursors — or from an empty store. A
//     checkpoint that fails to decode is skipped, falling back to the
//     previous valid one, and finally to a full-log scan — a damaged
//     checkpoint must degrade restart time, never correctness.
//  3. Replay the log suffix: every VmCreate / VmAccept / Commit
//     record's database actions are redone, each once — the image
//     holds exactly the records below the checkpoint — and Vm channel
//     state is rebuilt — a commit accepts the Vm it lists, as an
//     acceptance record accepts its one. Records refer to items by the
//     ordinals the checkpoint and the suffix's RecName records define,
//     read in LSN order (wal.Names); a reference to any other ordinal
//     fails the recovery.
//  4. Resume the clock at the highest reservation the log holds — a
//     RecClock anywhere in it, or the checkpoint's — and report it
//     (Summary.Clock): no stamp the site used lies above it, the Conc1
//     lock stamps the crash lost among them, so the site floors every
//     item's stamp there, items no record names included.
//  5. Outstanding Vm are NOT retransmitted here: they re-enter the
//     normal retransmission loop once the site is up ("the system
//     eventually sends the outstanding Vm in the normal course of
//     processing").
package recovery

import (
	"fmt"
	"time"

	"dvp/internal/ident"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// Summary reports what recovery did, for tests and the T3 experiment.
type Summary struct {
	// CheckpointLSN is the LSN of the checkpoint used (0 if none).
	CheckpointLSN uint64
	// CheckpointsSkipped counts checkpoint records that failed to
	// decode and were passed over in favour of an earlier one (or a
	// full scan).
	CheckpointsSkipped int
	// RecordsScanned counts log records visited after the checkpoint.
	RecordsScanned int
	// ActionsRedone counts database actions re-applied from the suffix.
	ActionsRedone int
	// VmRestored counts outbound Vm re-registered for retransmission.
	VmRestored int
	// Elapsed is the wall-clock duration of the whole recovery.
	Elapsed time.Duration
	// NetworkCalls is always zero; it exists so the independence
	// claim is an explicit, asserted output rather than a comment.
	NetworkCalls int
	// Clock is the clock reservation recovery resumed from: no counter
	// the site used before the crash lies above it.
	Clock uint64
	// Names is the log's item table as the replay left it: every
	// ordinal the log defines, by the checkpoint or behind it.
	Names *wal.Names
}

// Recover rebuilds a site's state from its stable log alone, into the
// objects it is given: db's contents are replaced — by the last valid
// checkpoint's image, or by nothing — and vm and clock must be freshly
// constructed or reset.
func Recover(log wal.Log, db *store.Durable, vm *vmsg.Manager, clock *tstamp.Clock) (Summary, error) {
	start := time.Now()
	var sum Summary

	// Pass 1: locate the last checkpoint that decodes, and the highest
	// clock reservation anywhere in the log — one that raced a
	// checkpoint's cut may lie below it. Later damaged checkpoints are
	// skipped, not fatal: the fallback ladder is latest-valid
	// checkpoint → earlier valid checkpoint → full scan.
	var cpLSN, bound uint64
	var cp *wal.CheckpointRec
	names := new(wal.Names)
	err := log.Scan(1, func(r wal.Record) error {
		switch r.Kind {
		case wal.RecCheckpoint:
			n := new(wal.Names)
			rec, err := n.DecodeCheckpoint(r.Data)
			if err != nil {
				sum.CheckpointsSkipped++
				return nil
			}
			cp, cpLSN, names = rec, r.LSN, n
		case wal.RecClock:
			rec, err := wal.DecodeClock(r.Data)
			if err != nil {
				return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
			}
			bound = max(bound, rec.Bound)
		}
		return nil
	})
	if err != nil {
		return sum, err
	}
	db.RestoreCheckpoint(nil)
	if cp != nil {
		sum.CheckpointLSN = cpLSN
		vm.RestoreChannels(cp.Channels)
		bound = max(bound, cp.Clock)
		db.RestoreCheckpoint(cp.Items)
	}

	// Pass 2: replay the suffix, its names defined by the checkpoint.
	sum.Names = names
	if err := replay(log, db, vm, names, cpLSN+1, &sum); err != nil {
		return sum, err
	}
	clock.Restore(bound)
	clock.Reserve(bound)
	sum.Clock = bound
	sum.Elapsed = time.Since(start)
	return sum, nil
}

// replay is the streaming single-pass redo of the suffix, in LSN
// order, never buffering it.
func replay(log wal.Log, db *store.Durable, vm *vmsg.Manager, names *wal.Names, from uint64, sum *Summary) error {
	return log.Scan(from, func(r wal.Record) error {
		sum.RecordsScanned++
		return redo(r, db, vm, names, sum)
	})
}

// redo replays one record: a RecName defines its ordinal in names; any
// other record's database actions are re-applied, then Vm channel state
// is rebuilt — what the record creates, and what it accepts, be it a Vm
// acceptance or a commit that consumed Vm.
func redo(r wal.Record, db *store.Durable, vm *vmsg.Manager, names *wal.Names, sum *Summary) error {
	apply := func(actions []wal.Action) error {
		n, err := db.ApplyAll(r.LSN, actions)
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
		}
		sum.ActionsRedone += n
		return nil
	}
	switch r.Kind {
	case wal.RecVmCreate:
		rec, err := names.DecodeVmCreate(r.Data)
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
		}
		if err := apply(rec.Actions); err != nil {
			return err
		}
		vm.Created(rec.Msgs)
		sum.VmRestored += len(rec.Msgs)
	case wal.RecVmAccept:
		rec, err := names.DecodeVmAccept(r.Data)
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
		}
		if err := apply(rec.Actions); err != nil {
			return err
		}
	case wal.RecCommit:
		rec, err := names.DecodeCommit(r.Data)
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
		}
		if err := apply(rec.Actions); err != nil {
			return err
		}
	case wal.RecName:
		if _, err := names.DecodeName(r.Data); err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
		}
	case wal.RecApplied, wal.RecCheckpoint, wal.RecClock:
		// RecApplied marks a commit applied, which replay needs no
		// marker to know: nothing to do with one.
		// Checkpoints and reservations were handled in pass 1
		// (including damaged checkpoints, which the fallback ladder
		// skipped).
	case wal.RecPrepare, wal.RecDecision:
		// Baseline records never appear in a DvP site's log.
		return fmt.Errorf("recovery: unexpected baseline record %v at LSN %d", r.Kind, r.LSN)
	default:
		return fmt.Errorf("recovery: unknown record kind %v at LSN %d", r.Kind, r.LSN)
	}
	accepted, err := wal.Accepted(r)
	if err != nil {
		return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
	}
	for _, v := range accepted {
		vm.MarkAccepted(v.From, v.Seq)
	}
	return nil
}

// Rebuild replays a site's stable log into brand-new state — what a
// restart rebuilds — leaving the log only read, never written.
// Invariant checkers use it to hold a live store to its log: the
// rebuilt store must agree with the live one on every item value,
// however many crashes interleaved the history.
func Rebuild(log wal.Log, site ident.SiteID) (*store.Durable, *vmsg.Manager, Summary, error) {
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(site)
	sum, err := Recover(log, db, vm, clock)
	return db, vm, sum, err
}
