// Package recovery implements the paper's §7 recovery algorithm. It
// is deliberately *independent*: it takes only the recovering site's
// own stable log and durable store — never a network handle — so the
// type system itself enforces "other sites need not be queried to find
// out any information to allow normal processing to begin".
//
// The algorithm:
//
//  1. Lock state is volatile and simply does not survive (the caller
//     starts with an empty lock table) — §7 argues this is safe.
//  2. Find the last *valid* checkpoint, restore Vm channel cursors and
//     the Lamport counter from it. A checkpoint that fails to decode is
//     skipped, falling back to the previous valid one, and finally to a
//     full-log scan — a damaged checkpoint must degrade restart time,
//     never correctness.
//  3. Replay the log suffix: every VmCreate / VmAccept / Commit
//     record's database actions are redone idempotently (the store's
//     per-item applied-LSN makes replay safe even if recovery itself
//     crashes and reruns), Vm channel state is rebuilt, and the
//     highest transaction timestamp is folded into the clock. With
//     Options.Workers > 1 the suffix is decoded in parallel and the
//     actions are applied by per-item-stripe workers; each item's
//     actions stay on one worker in LSN order, so the applied-LSN skip
//     rule sees exactly the serial order per item.
//  4. Outstanding Vm are NOT retransmitted here: they re-enter the
//     normal retransmission loop once the site is up ("the system
//     eventually sends the outstanding Vm in the normal course of
//     processing").
package recovery

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dvp/internal/ident"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// Options tune how the log suffix is replayed. The zero value is the
// serial full-compatibility path.
type Options struct {
	// Workers is the number of replay workers. Values <= 1 replay
	// serially in a single streaming pass; values > 1 stream the
	// suffix in fixed-size chunks, decode each chunk in parallel, and
	// apply actions on per-item-stripe scratches.
	Workers int
}

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
	// ActionsRedone counts database actions actually re-applied (not
	// skipped by the applied-LSN check).
	ActionsRedone int
	// VmRestored counts outbound Vm re-registered for retransmission.
	VmRestored int
	// Workers is the worker count the replay actually used.
	Workers int
	// Elapsed is the wall-clock duration of the whole recovery.
	Elapsed time.Duration
	// NetworkCalls is always zero; it exists so the independence
	// claim is an explicit, asserted output rather than a comment.
	NetworkCalls int
}

// Recover rebuilds volatile state from the stable log using the serial
// replay path. db, vm and clock must be freshly constructed (or
// checkpoint-restored) empties; the durable db may also carry
// pre-crash state — replay is idempotent either way.
func Recover(log wal.Log, db *store.Durable, vm *vmsg.Manager, clock *tstamp.Clock) (Summary, error) {
	return RecoverOpts(log, db, vm, clock, Options{})
}

// RecoverOpts is Recover with explicit replay options.
func RecoverOpts(log wal.Log, db *store.Durable, vm *vmsg.Manager, clock *tstamp.Clock, opts Options) (Summary, error) {
	start := time.Now()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	sum := Summary{Workers: workers}

	// Pass 1: locate the last checkpoint that decodes. Later damaged
	// checkpoints are skipped, not fatal: the fallback ladder is
	// latest-valid checkpoint → earlier valid checkpoint → full scan.
	var cpLSN uint64
	var cp *wal.CheckpointRec
	err := log.Scan(1, func(r wal.Record) error {
		if r.Kind == wal.RecCheckpoint {
			rec, err := wal.DecodeCheckpoint(r.Data)
			if err != nil {
				sum.CheckpointsSkipped++
				return nil
			}
			cp, cpLSN = rec, r.LSN
		}
		return nil
	})
	if err != nil {
		return sum, err
	}
	if cp != nil {
		sum.CheckpointLSN = cpLSN
		vm.RestoreChannels(cp.Channels)
		clock.Restore(cp.Clock)
		// The durable store survives on its own; the checkpoint's
		// item snapshot is only needed when rebuilding a store from
		// the log alone (e.g. disk replacement).
		if len(db.Items()) == 0 && len(cp.Items) > 0 {
			db.RestoreCheckpoint(cp.Items)
		}
	}

	// Pass 2: replay the suffix.
	if workers > 1 {
		err = replayParallel(log, db, vm, clock, cpLSN+1, workers, &sum)
	} else {
		err = replaySerial(log, db, vm, clock, cpLSN+1, &sum)
	}
	if err != nil {
		return sum, err
	}

	// Fold the durable store's own stamps into the clock: a timestamp
	// this site issued (as a transaction TS or a Conc1 lock stamp)
	// must never be reissued. Without this, a recovered site's first
	// transactions would be cc-rejected even when purely local,
	// contradicting §7's "write-only transactions could always be
	// processed at the local site".
	for _, item := range db.Items() {
		if it, ok := db.Get(item); ok && it.TS.Site() == clock.Site() {
			clock.Observe(it.TS)
		}
	}
	sum.Elapsed = time.Since(start)
	return sum, nil
}

// decoded is one suffix record after payload decoding, normalized so
// both replay paths share one shape: the actions to redo plus the
// kind-specific Vm/clock bookkeeping.
type decoded struct {
	lsn     uint64
	kind    wal.RecordKind
	actions []wal.Action
	msgs    []wal.VmOut  // RecVmCreate
	from    ident.SiteID // RecVmAccept
	seq     uint64       // RecVmAccept
	txn     tstamp.TS    // RecCommit
	err     error
}

// decodeRecord parses one record into its replay-relevant parts. It
// never touches shared state, so it can run on any worker.
func decodeRecord(r wal.Record) decoded {
	d := decoded{lsn: r.LSN, kind: r.Kind}
	switch r.Kind {
	case wal.RecVmCreate:
		rec, err := wal.DecodeVmCreate(r.Data)
		if err != nil {
			d.err = fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
			return d
		}
		d.actions, d.msgs = rec.Actions, rec.Msgs
	case wal.RecVmAccept:
		rec, err := wal.DecodeVmAccept(r.Data)
		if err != nil {
			d.err = fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
			return d
		}
		d.actions, d.from, d.seq = rec.Actions, rec.From, rec.Seq
	case wal.RecCommit:
		rec, err := wal.DecodeCommit(r.Data)
		if err != nil {
			d.err = fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
			return d
		}
		d.actions, d.txn = rec.Actions, rec.Txn
	case wal.RecApplied, wal.RecCheckpoint:
		// RecApplied appears only in logs written before sites stopped
		// appending it; the store's applied-LSN already bounds redo,
		// so there is nothing to do with one.
		// Checkpoints were handled in pass 1 (including damaged ones,
		// which the fallback ladder skipped).
	case wal.RecPrepare, wal.RecDecision, wal.RecBaseApplied:
		// Baseline records never appear in a DvP site's log.
		d.err = fmt.Errorf("recovery: unexpected baseline record %v at LSN %d", r.Kind, r.LSN)
	default:
		d.err = fmt.Errorf("recovery: unknown record kind %v at LSN %d", r.Kind, r.LSN)
	}
	return d
}

// bookkeep performs the non-store side effects of one replayed record:
// Vm channel rebuild and Lamport clock restoration. Both replay paths
// call it in LSN order.
func bookkeep(d *decoded, vm *vmsg.Manager, clock *tstamp.Clock, sum *Summary) {
	switch d.kind {
	case wal.RecVmCreate:
		vm.Created(d.msgs)
		sum.VmRestored += len(d.msgs)
	case wal.RecVmAccept:
		vm.MarkAccepted(d.from, d.seq)
	case wal.RecCommit:
		clock.Observe(d.txn)
	}
	observeActions(clock, d.actions)
}

// replaySerial is the streaming single-pass replay: decode and apply
// each record in turn, never buffering the suffix.
func replaySerial(log wal.Log, db *store.Durable, vm *vmsg.Manager, clock *tstamp.Clock, from uint64, sum *Summary) error {
	return log.Scan(from, func(r wal.Record) error {
		sum.RecordsScanned++
		d := decodeRecord(r)
		if d.err != nil {
			return d.err
		}
		n, err := db.ApplyAll(d.lsn, d.actions)
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", d.lsn, err)
		}
		sum.ActionsRedone += n
		bookkeep(&d, vm, clock, sum)
		return nil
	})
}

// replayChunk is the number of suffix records processed per pipeline
// round. Chunking bounds replay memory to O(chunk) instead of
// O(suffix) and keeps each round's garbage young; the chunk is large
// enough that the per-round fan-out/join cost is noise.
const replayChunk = 4096

// errStopReplay is the Scan-callback sentinel used to stop the suffix
// scan once a chunk has failed; the real error travels separately.
var errStopReplay = errors.New("recovery: stop replay")

// stripeOp is one database action tagged with the LSN of the record
// that logged it, queued for a per-item-stripe apply worker.
type stripeOp struct {
	lsn uint64
	a   wal.Action
}

// replayParallel streams the suffix in chunks; each chunk runs three
// passes: parallel decode, an ordered dispatcher walk, and parallel
// apply.
//
// The walk validates records in LSN order, rebuilds Vm channel state
// (sequenced side effects stay single-threaded), folds the suffix's
// maximum timestamp into one clock observation — Observe is a pure
// max-fold, so observing the maximum once equals observing every
// stamp in order — and partitions the actions into per-item-stripe
// runs. One item always lands on one stripe, runs preserve LSN order,
// and each stripe's scratch persists across chunks, so a stripe
// worker replaying its runs against a private store.Scratch sees
// exactly the serial per-item order: the applied-LSN skip rule cannot
// silently drop a delta. Stripes touch disjoint items, so installing
// the scratches back is race-free and costs one lock acquisition per
// stripe instead of one per action — the store's single mutex never
// becomes the parallel bottleneck.
func replayParallel(log wal.Log, db *store.Durable, vm *vmsg.Manager, clock *tstamp.Clock, from uint64, workers int, sum *Summary) error {
	scratches := make([]*store.Scratch, workers)
	for w := range scratches {
		scratches[w] = db.NewScratch()
	}
	counts := make([]int, workers)
	errs := make([]error, workers)
	runs := make([][]stripeOp, workers)
	dec := make([]decoded, replayChunk)
	recs := make([]wal.Record, 0, replayChunk)
	var arena []byte // chunk payload buffer, reused: decode copies what it keeps
	var maxTS tstamp.TS
	var walkErr error

	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		sum.RecordsScanned += len(recs)

		// Parallel decode: worker w owns indices w, w+W, w+2W... so
		// the writes into dec are disjoint.
		dcur := dec[:len(recs)]
		var dwg sync.WaitGroup
		for w := 0; w < workers; w++ {
			dwg.Add(1)
			go func(w int) {
				defer dwg.Done()
				for i := w; i < len(dcur); i += workers {
					dcur[i] = decodeRecord(recs[i])
				}
			}(w)
		}
		dwg.Wait()

		// Ordered dispatcher walk — validate, Vm bookkeeping, clock
		// fold, stripe partition. A record that failed to decode stops
		// the walk; the prefix before it still replays, matching the
		// serial path.
		for i := range dcur {
			d := &dcur[i]
			if d.err != nil {
				walkErr = d.err
				break
			}
			switch d.kind {
			case wal.RecVmCreate:
				vm.Created(d.msgs)
				sum.VmRestored += len(d.msgs)
			case wal.RecVmAccept:
				vm.MarkAccepted(d.from, d.seq)
			case wal.RecCommit:
				if d.txn > maxTS {
					maxTS = d.txn
				}
			}
			for _, a := range d.actions {
				if a.SetTS > maxTS {
					maxTS = a.SetTS
				}
				w := itemStripe(a.Item, workers)
				runs[w] = append(runs[w], stripeOp{lsn: d.lsn, a: a})
			}
		}

		// Parallel apply, each stripe against its private scratch.
		var awg sync.WaitGroup
		for w := 0; w < workers; w++ {
			if len(runs[w]) == 0 {
				continue
			}
			awg.Add(1)
			go func(w int) {
				defer awg.Done()
				for _, op := range runs[w] {
					applied, err := scratches[w].Apply(op.lsn, op.a)
					if err != nil {
						errs[w] = fmt.Errorf("recovery: LSN %d: %w", op.lsn, err)
						return
					}
					if applied {
						counts[w]++
					}
				}
			}(w)
		}
		awg.Wait()
		for w := range runs {
			runs[w] = runs[w][:0]
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return walkErr
	}

	var flushErr error
	err := log.Scan(from, func(r wal.Record) error {
		// Copy the payload into the chunk arena: Scan implementations
		// may reuse buffers, and the decode workers outlive the
		// callback. Arena growth leaves earlier sub-slices pointing at
		// the old backing array, which still holds their copies.
		off := len(arena)
		arena = append(arena, r.Data...)
		recs = append(recs, wal.Record{LSN: r.LSN, Kind: r.Kind, Data: arena[off:len(arena):len(arena)]})
		if len(recs) == replayChunk {
			if e := flush(); e != nil {
				flushErr = e
				return errStopReplay
			}
			recs, arena = recs[:0], arena[:0]
		}
		return nil
	})
	switch {
	case errors.Is(err, errStopReplay):
		err = flushErr
	case err == nil:
		err = flush()
	}
	if !maxTS.IsZero() {
		clock.Observe(maxTS)
	}
	for _, n := range counts {
		sum.ActionsRedone += n
	}
	// An apply error poisons the scratches: leave the store at the
	// checkpoint image rather than install a half-failed stripe.
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	for _, sc := range scratches {
		sc.Install()
	}
	return err
}

// itemStripe hashes an item to its apply worker (FNV-1a, matching the
// admission-stripe hash in internal/site).
func itemStripe(item ident.ItemID, workers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(item); i++ {
		h ^= uint32(item[i])
		h *= 16777619
	}
	return int(h % uint32(workers))
}

// Rebuild replays a site's stable log into brand-new volatile and
// durable state, as if the site's disk (minus the log and its last
// checkpoint) had been replaced. Invariant checkers use it to verify
// WAL-replay idempotence: the rebuilt store must agree with the live
// one on every item value, however many crashes interleaved the
// history. The log is only read, never written; the replay is the
// serial reference path, which the recovery-equivalence oracle holds
// the parallel path to.
//
// Note the rebuilt state reflects logged history only: the initial
// quota placement and Conc1 lock stamps are not logged, so a rebuild
// is exact only from the first checkpoint onward (checkpoints carry
// the full store snapshot).
func Rebuild(log wal.Log, site ident.SiteID) (*store.Durable, *vmsg.Manager, Summary, error) {
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(site)
	sum, err := Recover(log, db, vm, clock)
	return db, vm, sum, err
}

// observeActions folds the timestamps a record carries into the clock
// so that a recovered site never reissues a timestamp it already used
// durably (the §7 "outdated timestamps" are then healed further by the
// Lamport bump on the first messages received).
func observeActions(clock *tstamp.Clock, actions []wal.Action) {
	for _, a := range actions {
		if !a.SetTS.IsZero() {
			clock.Observe(a.SetTS)
		}
	}
}
