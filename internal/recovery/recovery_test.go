package recovery

import (
	"slices"
	"strings"
	"testing"

	"dvp/internal/ident"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// buildLog writes a representative history: quota creation (commit),
// a grant (vm-create), an acceptance (vm-accept), a commit, an
// applied marker.
func buildLog(t *testing.T) *wal.MemLog {
	t.Helper()
	l := wal.NewMemLog()
	appendRec := func(kind wal.RecordKind, data []byte) uint64 {
		lsn, err := l.Append(kind, data)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	// The reservation covering every stamp below.
	appendRec(wal.RecClock, (&wal.ClockRec{Bound: 16}).Encode())
	// Initial quota: +50 to "x".
	appendRec(wal.RecCommit, (&wal.CommitRec{
		Txn:     tstamp.Make(1, 1),
		Actions: []wal.Action{{Item: "x", Delta: 50, SetTS: tstamp.Make(1, 1)}},
	}).Encode())
	// Grant 10 to site 2 as Vm seq 1.
	appendRec(wal.RecVmCreate, (&wal.VmCreateRec{
		Actions: []wal.Action{{Item: "x", Delta: -10, SetTS: tstamp.Make(2, 2)}},
		Msgs:    []wal.VmOut{{To: 2, Seq: 1, Item: "x", Amount: 10, ReqTxn: tstamp.Make(2, 2)}},
	}).Encode())
	// Accept a Vm from site 3 (seq 4) carrying 7.
	appendRec(wal.RecVmAccept, (&wal.VmAcceptRec{
		From: 3, Seq: 4,
		Actions: []wal.Action{{Item: "x", Delta: 7}},
	}).Encode())
	// A local commit: -5.
	lsn := appendRec(wal.RecCommit, (&wal.CommitRec{
		Txn:     tstamp.Make(9, 1),
		Actions: []wal.Action{{Item: "x", Delta: -5, SetTS: tstamp.Make(9, 1)}},
	}).Encode())
	appendRec(wal.RecApplied, (&wal.AppliedRec{CommitLSN: lsn}).Encode())
	return l
}

func TestRecoverRebuildsEverything(t *testing.T) {
	l := buildLog(t)
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(1)
	sum, err := Recover(l, db, vm, clock)
	if err != nil {
		t.Fatal(err)
	}
	if db.Value("x") != 42 { // 50 -10 +7 -5
		t.Errorf("value = %d, want 42", db.Value("x"))
	}
	if sum.RecordsScanned != 6 || sum.ActionsRedone != 4 || sum.VmRestored != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.NetworkCalls != 0 {
		t.Error("recovery must make zero network calls")
	}
	// Outbound Vm re-pending for retransmission.
	if p := vm.PendingTo(2); len(p) != 1 || p[0].Amount != 10 {
		t.Errorf("pending = %+v", p)
	}
	// Inbound dedup state restored: seq 4 from site 3 must not
	// re-accept.
	if vm.ShouldAccept(3, 4) {
		t.Error("accepted Vm would be double-credited after recovery")
	}
	// Clock at the reservation, beyond every stamp this site issued,
	// and the summary names it: the site floors its stamps there.
	if clock.Current() != 16 || clock.Bound() != 16 || sum.Clock != 16 {
		t.Errorf("clock %d, reservation %d, summary %d; want 16", clock.Current(), clock.Bound(), sum.Clock)
	}
}

// A crash during recovery, or a store holding what the log does not
// (credits whose records the crash dropped with the log's queue), is
// harmless: recovery replaces the store's contents, so a rerun redoes
// the same actions and lands in the same state.
func TestRecoverIsIdempotent(t *testing.T) {
	l := buildLog(t)
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(1)
	first, err := Recover(l, db, vm, clock)
	if err != nil {
		t.Fatal(err)
	}
	db.ApplyAll(99, []wal.Action{{Item: "x", Delta: 5}, {Item: "stray", Delta: 3}})
	vm.Reset()
	clock.Reset()
	second, err := Recover(l, db, vm, clock)
	if err != nil {
		t.Fatal(err)
	}
	if db.Value("x") != 42 {
		t.Errorf("second recovery: x = %d, want 42", db.Value("x"))
	}
	if _, ok := db.Get("stray"); ok {
		t.Error("an item the log never wrote survived recovery")
	}
	if second.ActionsRedone != first.ActionsRedone {
		t.Errorf("second pass redid %d actions, first %d", second.ActionsRedone, first.ActionsRedone)
	}
}

func TestRecoverUsesCheckpoint(t *testing.T) {
	l := buildLog(t)
	// Snapshot current state into a checkpoint, then more history.
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(1)
	if _, err := Recover(l, db, vm, clock); err != nil {
		t.Fatal(err)
	}
	cp := &wal.CheckpointRec{
		Items:    db.Snapshot(),
		Channels: vm.SnapshotChannels(),
		Clock:    clock.Current(),
	}
	if _, err := l.Append(wal.RecCheckpoint, cp.Encode()); err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.Append(wal.RecCommit, (&wal.CommitRec{
		Txn:     tstamp.Make(11, 1),
		Actions: []wal.Action{{Item: "x", Delta: 1, SetTS: tstamp.Make(11, 1)}},
	}).Encode())
	_ = lsn

	db2 := store.New()
	vm2 := vmsg.NewManager()
	clock2 := tstamp.NewClock(1)
	sum, err := Recover(l, db2, vm2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CheckpointLSN == 0 {
		t.Error("checkpoint not used")
	}
	if sum.RecordsScanned != 1 {
		t.Errorf("scanned %d records after checkpoint, want 1", sum.RecordsScanned)
	}
	if db2.Value("x") != 43 {
		t.Errorf("value = %d, want 43", db2.Value("x"))
	}
	if vm2.ShouldAccept(3, 4) {
		t.Error("checkpointed dedup state lost")
	}
	if p := vm2.PendingTo(2); len(p) != 1 {
		t.Errorf("checkpointed pending lost: %+v", p)
	}
}

func TestRecoverRejectsBaselineRecords(t *testing.T) {
	l := wal.NewMemLog()
	l.Append(wal.RecPrepare, (&wal.PrepareRec{Txn: tstamp.Make(1, 1)}).Encode())
	_, err := Recover(l, store.New(), vmsg.NewManager(), tstamp.NewClock(1))
	if err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("baseline record accepted: %v", err)
	}
}

func TestRecoverRejectsCorruptRecord(t *testing.T) {
	l := wal.NewMemLog()
	l.Append(wal.RecCommit, []byte{0xFF}) // undecodable
	if _, err := Recover(l, store.New(), vmsg.NewManager(), tstamp.NewClock(1)); err == nil {
		t.Error("corrupt record accepted")
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	sum, err := Recover(wal.NewMemLog(), store.New(), vmsg.NewManager(), tstamp.NewClock(1))
	if err != nil {
		t.Fatal(err)
	}
	if sum.RecordsScanned != 0 || sum.CheckpointLSN != 0 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestRecoverFromCompactedLogWithEmptyStore models a real process
// restart (cmd/dvpnode): the store is rebuilt from scratch and the log
// has been compacted down to [checkpoint, tail]. The checkpoint's item
// snapshot must reconstruct the store.
func TestRecoverFromCompactedLogWithEmptyStore(t *testing.T) {
	l := buildLog(t)
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(1)
	if _, err := Recover(l, db, vm, clock); err != nil {
		t.Fatal(err)
	}
	cp := &wal.CheckpointRec{
		Items:    db.Snapshot(),
		Channels: vm.SnapshotChannels(),
		Clock:    clock.Current(),
	}
	cpLSN, err := l.Append(wal.RecCheckpoint, cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(cpLSN - 1); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint history, stamped above the checkpoint's
	// reservation behind one of its own.
	l.Append(wal.RecClock, (&wal.ClockRec{Bound: 32}).Encode())
	l.Append(wal.RecCommit, (&wal.CommitRec{
		Txn:     tstamp.Make(20, 1),
		Actions: []wal.Action{{Item: "x", Delta: -2, SetTS: tstamp.Make(20, 1)}},
	}).Encode())

	// Fresh process: empty store, everything from the log.
	db2 := store.New()
	vm2 := vmsg.NewManager()
	clock2 := tstamp.NewClock(1)
	sum, err := Recover(l, db2, vm2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Value("x") != 40 { // 42 from snapshot, -2 after
		t.Errorf("value = %d, want 40", db2.Value("x"))
	}
	if sum.CheckpointLSN != cpLSN || sum.RecordsScanned != 2 {
		t.Errorf("summary = %+v", sum)
	}
	if p := vm2.PendingTo(2); len(p) != 1 {
		t.Errorf("checkpointed pending Vm lost across compaction: %+v", p)
	}
	if vm2.ShouldAccept(3, 4) {
		t.Error("dedup state lost across compaction (double credit)")
	}
	if ts := clock2.Next(); ts.Counter() <= 20 {
		t.Errorf("clock = %v", ts)
	}
}

func TestRebuildMatchesIncrementalRecovery(t *testing.T) {
	l := buildLog(t)
	// Restart path: recovery into the live objects, whose store holds
	// what the log does not.
	db := store.New()
	db.Create("stray", 9)
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(1)
	if _, err := Recover(l, db, vm, clock); err != nil {
		t.Fatal(err)
	}
	// Rebuild path: brand-new everything from the log alone.
	db2, vm2, sum, err := Rebuild(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NetworkCalls != 0 {
		t.Error("rebuild must make zero network calls")
	}
	if !slices.Equal(db.Snapshot(), db2.Snapshot()) {
		t.Errorf("restarted store %v, rebuilt %v", db.Snapshot(), db2.Snapshot())
	}
	if len(vm2.PendingTo(2)) != len(vm.PendingTo(2)) {
		t.Errorf("rebuilt pending = %+v, live = %+v", vm2.PendingTo(2), vm.PendingTo(2))
	}
	if vm2.ShouldAccept(3, 4) {
		t.Error("rebuilt dedup state would double-credit")
	}
}

// TestRecoverRejectsNegativeAndUnknownKind drives replay's other two
// fatal-error paths: an action that would drive a quota negative and a
// record kind the codec does not know both fail recovery, and the
// rejected action leaves the store untouched.
func TestRecoverRejectsNegativeAndUnknownKind(t *testing.T) {
	t.Run("negative", func(t *testing.T) {
		l := wal.NewMemLog()
		l.Append(wal.RecCommit, (&wal.CommitRec{
			Txn:     tstamp.Make(1, 1),
			Actions: []wal.Action{{Item: "x", Delta: -5, SetTS: tstamp.Make(1, 1)}},
		}).Encode())
		db := store.New()
		_, err := Recover(l, db, vmsg.NewManager(), tstamp.NewClock(1))
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("negative apply accepted by replay: %v", err)
		}
		if got := db.Value("x"); got != 0 {
			t.Errorf("rejected action applied anyway: x = %d", got)
		}
	})
	t.Run("unknown-kind", func(t *testing.T) {
		l := wal.NewMemLog()
		l.Append(wal.RecordKind(250), nil)
		_, err := Recover(l, store.New(), vmsg.NewManager(), tstamp.NewClock(1))
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("unknown record kind accepted: %v", err)
		}
	})
}

// A record that refers to an ordinal its log has not defined before it
// fails the recovery — whatever its kind, and a checkpoint that gave
// its items no ordinals before a compaction leaves every reference
// behind it undefined — and so do a RecName that names no ordinal and
// one that renames an ordinal. None of them becomes an action on an
// empty name.
func TestUndefinedOrdinalFailsRecovery(t *testing.T) {
	ts := tstamp.Make(4, 1)
	name := func(ord uint64, item string) wal.Record {
		return wal.Record{Kind: wal.RecName, Data: (&wal.NameRec{Ord: ord, Item: ident.ItemID(item)}).Encode()}
	}
	ref := func(ord uint64) []wal.Action { return []wal.Action{{Item: "a", Delta: 1, SetTS: ts, Ord: ord}} }
	placed := []wal.Record{
		name(1, "a"),
		{Kind: wal.RecCommit, Data: (&wal.CommitRec{Txn: ts, Actions: ref(1)}).Encode()},
	}
	for _, c := range []struct {
		name    string
		compact bool
		recs    []wal.Record
	}{
		{"commit", false, []wal.Record{{Kind: wal.RecCommit, Data: (&wal.CommitRec{Txn: ts, Actions: ref(2)}).Encode()}}},
		{"create", false, []wal.Record{{Kind: wal.RecVmCreate, Data: (&wal.VmCreateRec{
			Actions: []wal.Action{{Item: "b", Delta: -1, Ord: 2}},
			Msgs:    []wal.VmOut{{To: 2, Seq: 1, Item: "b", Amount: 1}},
		}).Encode()}}},
		{"accept", false, []wal.Record{{Kind: wal.RecVmAccept, Data: (&wal.VmAcceptRec{From: 2, Seq: 1, Actions: ref(2)}).Encode()}}},
		{"reference ahead of its name", false, []wal.Record{
			{Kind: wal.RecCommit, Data: (&wal.CommitRec{Txn: ts, Actions: ref(2)}).Encode()},
			name(2, "b"),
		}},
		{"ordinal 0 named", false, []wal.Record{name(0, "b")}},
		{"ordinal renamed", false, []wal.Record{name(1, "b")}},
		{"checkpoint with no ordinals, compacted", true, []wal.Record{
			{Kind: wal.RecCheckpoint, Data: (&wal.CheckpointRec{Items: []wal.CheckpointItem{{Item: "a", Value: 1}}}).Encode()},
			{Kind: wal.RecCommit, Data: (&wal.CommitRec{Txn: ts, Actions: ref(1)}).Encode()},
		}},
	} {
		l := wal.NewMemLog()
		for _, r := range append(slices.Clone(placed), c.recs...) {
			if _, err := l.Append(r.Kind, r.Data); err != nil {
				t.Fatal(err)
			}
		}
		if c.compact {
			if err := l.Compact(uint64(len(placed))); err != nil {
				t.Fatal(err)
			}
		}
		db := store.New()
		_, err := Recover(l, db, vmsg.NewManager(), tstamp.NewClock(1))
		if err == nil {
			t.Errorf("%s: recovered", c.name)
		}
		if _, held := db.Get(""); held {
			t.Errorf("%s: the store holds the empty name", c.name)
		}
	}
}
