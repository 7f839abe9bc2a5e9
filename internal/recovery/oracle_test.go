package recovery

// The recovery-equivalence oracle: for randomized histories containing
// checkpoints at arbitrary positions (including between a commit and
// its applied marker, and between a Vm's creation and its acceptance),
// and commits that accept the Vm they consumed beside acceptance
// records,
// recovering from the latest checkpoint plus the log suffix must
// produce state byte-identical to a scan of the entire log that
// ignores checkpoints — whatever the store held before, since recovery
// replaces its contents. The comparison is on the encoded checkpoint
// payload of the final state, which covers every item's value and
// timestamp, every Vm channel's cursors, pending set and acceptance
// set, and the Lamport counter. The clock is the highest reservation
// the log holds — a reservation that raced a checkpoint's cut lies
// below it, and counts — which covers every stamp the store holds, so
// recovery needs no pass folding them in, only the one raising every
// item to the clock.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// snapshotBytes canonically encodes recovered state for comparison.
// Both Snapshot and SnapshotChannels sort deterministically, so equal
// states encode to equal bytes.
func snapshotBytes(db *store.Durable, vm *vmsg.Manager, clock *tstamp.Clock) []byte {
	return (&wal.CheckpointRec{
		Items:    db.Snapshot(),
		Channels: vm.SnapshotChannels(),
		Clock:    clock.Current(),
	}).Encode()
}

// histGen grows one randomized log history while mirroring every data
// record into a live writer state — exactly the way replay
// would — so the checkpoint records it interleaves are consistent cuts
// by construction.
type histGen struct {
	t     *testing.T
	rng   *rand.Rand
	log   *wal.MemLog
	db    *store.Durable
	vm    *vmsg.Manager
	clock *tstamp.Clock
	items []ident.ItemID

	ctr         uint64                  // writer timestamp counter
	bound       uint64                  // writer clock reservation
	outSeq      map[ident.SiteID]uint64 // per-peer outbound Vm seq
	inSeq       map[ident.SiteID]uint64 // per-peer inbound Vm seq
	lastCommit  uint64                  // LSN of the last commit record
	checkpoints int
	// noCheckpoints stops step from writing checkpoints: a suffix that
	// must not supersede the checkpoint a test damaged.
	noCheckpoints bool
	sum           Summary // sink for bookkeep counters
}

func newHistGen(t *testing.T, seed int64) *histGen {
	g := &histGen{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		log:    wal.NewMemLog(),
		db:     store.New(),
		vm:     vmsg.NewManager(),
		clock:  tstamp.NewClock(1),
		outSeq: make(map[ident.SiteID]uint64),
		inSeq:  make(map[ident.SiteID]uint64),
	}
	// Enough distinct items that multi-item commits overlap.
	n := 6 + g.rng.Intn(10)
	for i := 0; i < n; i++ {
		g.items = append(g.items, ident.ItemID(fmt.Sprintf("item/%d", i)))
	}
	return g
}

// appendData appends one data record and applies it to the writer
// state through the same per-record redo replay uses.
func (g *histGen) appendData(kind wal.RecordKind, payload []byte) uint64 {
	lsn, err := g.log.Append(kind, payload)
	if err != nil {
		g.t.Fatal(err)
	}
	if err := redo(wal.Record{LSN: lsn, Kind: kind, Data: payload}, g.db, g.vm, &g.sum); err != nil {
		g.t.Fatalf("generator produced a record replay rejects: %v", err)
	}
	return lsn
}

// checkpoint writes the writer state as a checkpoint record.
func (g *histGen) checkpoint() {
	if g.noCheckpoints {
		return
	}
	cp := &wal.CheckpointRec{
		Items:    g.db.Snapshot(),
		Channels: g.vm.SnapshotChannels(),
		Clock:    g.bound,
	}
	if _, err := g.log.Append(wal.RecCheckpoint, cp.Encode()); err != nil {
		g.t.Fatal(err)
	}
	g.checkpoints++
}

// reserve logs a clock reservation reaching a few counters past the
// writer's, as a site does once per stride.
func (g *histGen) reserve() {
	g.bound = g.ctr + 1 + uint64(g.rng.Intn(8))
	g.appendData(wal.RecClock, (&wal.ClockRec{Bound: g.bound}).Encode())
	g.clock.Restore(g.bound)
}

// stamp draws the writer's next timestamp, reserving first if it lies
// above the reservation.
func (g *histGen) stamp() tstamp.TS {
	g.ctr++
	if g.ctr > g.bound {
		g.reserve()
	}
	return tstamp.Make(g.ctr, 1)
}

// racedCheckpoint is a checkpoint whose cut read the reservation just
// before another reservation was logged below it: the checkpoint
// carries the older bound, and the site logs the newer one again above
// it (Site.Checkpoint).
func (g *histGen) racedCheckpoint() {
	if g.noCheckpoints {
		return
	}
	old := g.bound
	g.reserve()
	cut := g.bound
	g.bound = old
	g.checkpoint()
	g.bound = cut
	g.appendData(wal.RecClock, (&wal.ClockRec{Bound: g.bound}).Encode())
}

// step appends one random history element.
func (g *histGen) step() {
	switch p := g.rng.Float64(); {
	case p < 0.55: // local commit, sometimes multi-item, sometimes consuming Vm
		nacts := 1 + g.rng.Intn(3)
		ts := g.stamp()
		var acts []wal.Action
		seen := map[ident.ItemID]bool{}
		for i := 0; i < nacts; i++ {
			item := g.items[g.rng.Intn(len(g.items))]
			if seen[item] {
				continue
			}
			seen[item] = true
			delta := core.Value(g.rng.Intn(11)) - 5
			if bal := g.db.Value(item); delta < -bal {
				delta = -bal
			}
			if delta == 0 {
				delta = 1
			}
			acts = append(acts, wal.Action{Item: item, Delta: delta, SetTS: ts})
		}
		// A commit that consumed Vm from peers: their credits net into
		// its first action, and the record accepts them.
		var accepted []wal.VmRef
		if g.rng.Float64() < 0.4 {
			for k := 1 + g.rng.Intn(2); k > 0; k-- {
				from := ident.SiteID(2 + g.rng.Intn(3))
				g.inSeq[from]++
				accepted = append(accepted, wal.VmRef{From: from, Seq: g.inSeq[from]})
				acts[0].Delta += core.Value(1 + g.rng.Intn(5))
			}
		}
		g.lastCommit = g.appendData(wal.RecCommit, (&wal.CommitRec{Txn: ts, Actions: acts, Accepted: accepted}).Encode())
	case p < 0.70: // grant quota away as a Vm
		item := g.items[g.rng.Intn(len(g.items))]
		amt := core.Value(1 + g.rng.Intn(4))
		if bal := g.db.Value(item); bal < amt {
			return // nothing to grant
		}
		to := ident.SiteID(2 + g.rng.Intn(3))
		g.outSeq[to]++
		g.appendData(wal.RecVmCreate, (&wal.VmCreateRec{
			Actions: []wal.Action{{Item: item, Delta: -amt, SetTS: g.stamp()}},
			Msgs: []wal.VmOut{{
				To: to, Seq: g.outSeq[to], Item: item,
				Amount: amt, ReqTxn: tstamp.Make(g.ctr, to),
			}},
		}).Encode())
	case p < 0.85: // accept a Vm from a peer
		item := g.items[g.rng.Intn(len(g.items))]
		from := ident.SiteID(2 + g.rng.Intn(3))
		g.inSeq[from]++
		g.appendData(wal.RecVmAccept, (&wal.VmAcceptRec{
			From: from, Seq: g.inSeq[from],
			Actions: []wal.Action{{Item: item, Delta: core.Value(1 + g.rng.Intn(4))}},
		}).Encode())
	case p < 0.88:
		g.racedCheckpoint()
	case p < 0.93: // applied marker, occasionally split from its commit
		if g.lastCommit == 0 {
			return
		}
		if g.rng.Float64() < 0.3 {
			// The "mid-batch" cut: a checkpoint landing between a commit
			// and its applied marker must not confuse either replay path.
			g.checkpoint()
		}
		g.appendData(wal.RecApplied, (&wal.AppliedRec{CommitLSN: g.lastCommit}).Encode())
	default:
		g.checkpoint()
	}
}

// build generates the full history: initial quota, a random body, and
// at least one checkpoint at a random interior position.
func (g *histGen) build() {
	for _, item := range g.items {
		ts := g.stamp()
		g.appendData(wal.RecCommit, (&wal.CommitRec{
			Txn:     ts,
			Actions: []wal.Action{{Item: item, Delta: core.Value(20 + g.rng.Intn(100)), SetTS: ts}},
		}).Encode())
	}
	steps := 80 + g.rng.Intn(160)
	forced := 1 + g.rng.Intn(steps) // guarantee an interior checkpoint
	for i := 0; i < steps; i++ {
		if i == forced {
			g.checkpoint()
		}
		g.step()
	}
}

// TestRecoveryEquivalenceOracle holds checkpoint-plus-suffix recovery to
// the full-log replay reference across randomized histories.
func TestRecoveryEquivalenceOracle(t *testing.T) {
	const histories = 60
	for seed := int64(1); seed <= histories; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("history=%d", seed), func(t *testing.T) {
			t.Parallel()
			g := newHistGen(t, seed*911)
			g.build()

			// Reference: one scan of the whole log, checkpoints ignored
			// (replay treats RecCheckpoint as a no-op), and the clock at
			// the highest reservation in it.
			refDB, refVM, refClock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
			var refSum Summary
			if err := replay(g.log, refDB, refVM, 1, &refSum); err != nil {
				t.Fatalf("reference replay: %v", err)
			}
			refClock.Restore(highestReservation(t, g.log))
			ref := snapshotBytes(refDB, refVM, refClock)

			// The generator's writer state must agree with its own
			// history — a failure here is a bug in the oracle itself.
			if got := snapshotBytes(g.db, g.vm, g.clock); !bytes.Equal(got, ref) {
				t.Fatalf("generator state diverges from replay of its own log")
			}
			// The store a crash leaves behind: the writer's, and more.
			db, vm, clock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
			db.RestoreCheckpoint(g.db.Snapshot())
			db.ApplyAll(1<<40, []wal.Action{{Item: g.items[0], Delta: 3}, {Item: "stray", Delta: 1, SetTS: tstamp.Make(1<<30, 1)}})
			sum, err := Recover(g.log, db, vm, clock)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(db, vm, clock); !bytes.Equal(got, ref) {
				t.Errorf("recovered state differs from full-log replay\n  checkpoints=%d records=%d summary=%+v",
					g.checkpoints, g.log.LastLSN(), sum)
			}
			if sum.CheckpointLSN == 0 {
				t.Errorf("checkpoint not used (history has %d)", g.checkpoints)
			}
			if sum.Clock != refClock.Current() {
				t.Errorf("summary names reservation %d, want %d", sum.Clock, refClock.Current())
			}
			if sum.NetworkCalls != 0 {
				t.Errorf("recovery made network calls")
			}
		})
	}
}

// highestReservation is the largest bound any RecClock in l states.
func highestReservation(t *testing.T, l wal.Log) uint64 {
	t.Helper()
	var b uint64
	if err := l.Scan(1, func(r wal.Record) error {
		if r.Kind == wal.RecClock {
			rec, err := wal.DecodeClock(r.Data)
			if err != nil {
				return err
			}
			b = max(b, rec.Bound)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// A reservation that raced a checkpoint's cut lies below the checkpoint,
// which carries the older bound. While the record survives, recovery
// finds it there; the site logs it again above the checkpoint before
// compacting, so once the compaction drops it, recovery finds the copy.
// Without the copy, the compaction would lose it: the clock would
// resume below a stamp the site may have sent.
func TestReservationRacingACheckpoint(t *testing.T) {
	ts := tstamp.Make(3, 1)
	build := func(relog bool) *wal.MemLog {
		l := wal.NewMemLog()
		for _, r := range []wal.Record{
			{Kind: wal.RecClock, Data: (&wal.ClockRec{Bound: 10}).Encode()},
			{Kind: wal.RecCommit, Data: (&wal.CommitRec{Txn: ts, Actions: []wal.Action{{Item: "a", Delta: 5, SetTS: ts}}}).Encode()},
			{Kind: wal.RecClock, Data: (&wal.ClockRec{Bound: 70}).Encode()}, // the race
			{Kind: wal.RecCheckpoint, Data: (&wal.CheckpointRec{
				Items: []wal.CheckpointItem{{Item: "a", Value: 5}}, Clock: 10,
			}).Encode()},
		} {
			if _, err := l.Append(r.Kind, r.Data); err != nil {
				t.Fatal(err)
			}
		}
		if relog {
			if _, err := l.Append(wal.RecClock, (&wal.ClockRec{Bound: 70}).Encode()); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	recover := func(l wal.Log) *tstamp.Clock {
		db, vm, clock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
		sum, err := Recover(l, db, vm, clock)
		if err != nil {
			t.Fatal(err)
		}
		if sum.CheckpointLSN != 4 || db.Value("a") != 5 {
			t.Fatalf("recovered from checkpoint %d with a = %d, want 4 and 5", sum.CheckpointLSN, db.Value("a"))
		}
		if sum.Clock != clock.Current() {
			t.Errorf("summary names reservation %d, want the clock %d", sum.Clock, clock.Current())
		}
		return clock
	}
	for _, c := range []struct {
		name           string
		relog, compact bool
		want           uint64
	}{
		{"uncompacted", false, false, 70},
		{"logged again, compacted", true, true, 70},
		{"compacted with no copy", false, true, 10},
	} {
		l := build(c.relog)
		if c.compact {
			if err := l.Compact(3); err != nil {
				t.Fatal(err)
			}
		}
		if clock := recover(l); clock.Current() != c.want || clock.Bound() != c.want {
			t.Errorf("%s: clock %d, reservation %d; want %d", c.name, clock.Current(), clock.Bound(), c.want)
		}
	}
}

// TestRecoverFallsBackToEarlierCheckpoint corrupts the latest
// checkpoint: recovery must skip it, start from the previous valid one,
// and still reach the reference state.
func TestRecoverFallsBackToEarlierCheckpoint(t *testing.T) {
	g := newHistGen(t, 17)
	g.build()
	goodLSN := uint64(0)
	if err := g.log.Scan(1, func(r wal.Record) error {
		if r.Kind == wal.RecCheckpoint {
			goodLSN = r.LSN
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A few more records, then a checkpoint that cannot decode, then a
	// suffix the fallback path must replay from the earlier cut.
	g.step()
	if _, err := g.log.Append(wal.RecCheckpoint, []byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	g.noCheckpoints = true
	for i := 0; i < 10; i++ {
		g.step()
	}

	ref := snapshotBytes(g.db, g.vm, g.clock)
	db, vm, clock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
	sum, err := Recover(g.log, db, vm, clock)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CheckpointsSkipped != 1 {
		t.Errorf("skipped = %d, want 1", sum.CheckpointsSkipped)
	}
	if sum.CheckpointLSN != goodLSN {
		t.Errorf("used checkpoint %d, want earlier valid %d", sum.CheckpointLSN, goodLSN)
	}
	if got := snapshotBytes(db, vm, clock); !bytes.Equal(got, ref) {
		t.Errorf("fallback recovery diverged from writer state")
	}
}

// TestRecoverFallsBackToFullScan damages every checkpoint: recovery
// must degrade to a full-log scan — never error, never lose state.
func TestRecoverFallsBackToFullScan(t *testing.T) {
	l := wal.NewMemLog()
	appendRec := func(kind wal.RecordKind, data []byte) {
		if _, err := l.Append(kind, data); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(wal.RecClock, (&wal.ClockRec{Bound: 6}).Encode())
	ts1 := tstamp.Make(3, 1)
	appendRec(wal.RecCommit, (&wal.CommitRec{
		Txn: ts1, Actions: []wal.Action{{Item: "a", Delta: 30, SetTS: ts1}},
	}).Encode())
	appendRec(wal.RecCheckpoint, []byte{0xFF})
	ts2 := tstamp.Make(5, 1)
	appendRec(wal.RecCommit, (&wal.CommitRec{
		Txn: ts2, Actions: []wal.Action{{Item: "a", Delta: -4, SetTS: ts2}},
	}).Encode())
	appendRec(wal.RecCheckpoint, []byte{})

	db, vm, clock := store.New(), vmsg.NewManager(), tstamp.NewClock(1)
	sum, err := Recover(l, db, vm, clock)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CheckpointLSN != 0 {
		t.Errorf("checkpoint LSN = %d, want 0 (full scan)", sum.CheckpointLSN)
	}
	if sum.CheckpointsSkipped != 2 {
		t.Errorf("skipped = %d, want 2", sum.CheckpointsSkipped)
	}
	if db.Value("a") != 26 {
		t.Errorf("value = %d, want 26", db.Value("a"))
	}
	if clock.Current() != 6 {
		t.Errorf("clock = %d, want the reservation's 6", clock.Current())
	}
}
