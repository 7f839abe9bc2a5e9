package site

import (
	"strings"
	"testing"
	"time"

	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// sameAsLog fails the test unless a rebuild of log holds every item at
// the value s's store holds it: the log refers to each item by an
// ordinal that names that item.
func sameAsLog(t *testing.T, s *Site, log wal.Log) {
	t.Helper()
	db, _, _, err := recovery.Rebuild(log, s.ID())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	for _, item := range s.DB().Items() {
		if got, want := db.Value(item), s.DB().Value(item); got != want {
			t.Errorf("%s: the log rebuilds %d, the store holds %d", item, got, want)
		}
	}
}

// A restart takes each item's ordinal from the log — through a
// checkpoint that compacted away the records that defined them — and
// names no item twice; the next item takes the ordinal above the
// highest the log holds.
func TestRestartKeepsTheLogsOrdinals(t *testing.T) {
	tc, gl := groupedCluster(t, 81, nil)
	s := tc.sites[0]
	place(t, s, "a", 10)
	place(t, s, "b", 10)
	if res := s.Run(reserve("a", 1)); !res.Committed() {
		t.Fatal(res.Status)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if res := s.Run(reserve("b", 1)); !res.Committed() {
		t.Fatal(res.Status)
	}
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	for _, item := range []ident.ItemID{"a", "b"} {
		if res := s.Run(reserve(item, 1)); !res.Committed() {
			t.Fatalf("%s after the restart: %v", item, res.Status)
		}
	}
	place(t, s, "c", 1)
	var names []wal.NameRec
	if err := gl.Scan(1, func(r wal.Record) error {
		if r.Kind == wal.RecName {
			rec, err := wal.DecodeName(r.Data)
			if err != nil {
				return err
			}
			names = append(names, *rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != (wal.NameRec{Ord: 3, Item: "c"}) {
		t.Errorf("past the checkpoint the log names %+v, want only c, as 3", names)
	}
	namedOnce(t, s.ID(), gl)
	sameAsLog(t, s, gl)
}

// A crash that drops a RecName nobody forced drops the ordinal with it:
// the restarted site names that item again, and an ordinal the log does
// not hold goes to whichever item asks next. An ordinal the site kept
// across the crash would now name two items, and the log would credit
// the wrong one.
func TestCrashDropsAnUnforcedName(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0)) // no retransmission tick forces anything
	tc, gl := groupedCluster(t, 82, func(c *Config) { c.Clock = clock })
	s := tc.sites[0]
	place(t, s, "placed", 5)
	// A Vm for an item the log has never named: its acceptance is
	// queued behind the item's name, and nothing forces either.
	vm := &wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 1, Item: "fresh", Amount: 4}}
	s.handle(vm)
	if n := gl.Waiters(); n != 2 {
		t.Fatalf("%d records queued, want the name and the acceptance", n)
	}
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	place(t, s, "other", 3)
	s.handle(vm) // the sender's retransmission
	s.forceAccepts()
	if got := s.DB().Value("fresh"); got != 4 {
		t.Fatalf("fresh = %d after the retransmission, want 4", got)
	}
	namedOnce(t, s.ID(), gl)
	sameAsLog(t, s, gl)
}

// No item has an empty name: a placement of one is refused before
// anything is logged.
func TestPlaceRefusesAnEmptyName(t *testing.T) {
	tc, gl := groupedCluster(t, 83, nil)
	s := tc.sites[0]
	before := gl.LastLSN()
	_, _, err := s.Place([]wal.Action{{Item: "ok", Delta: 1}, {Item: "", Delta: 5}})
	if err == nil || !strings.Contains(err.Error(), "no name") {
		t.Errorf("placing an empty name: %v, want a refusal", err)
	}
	if gl.LastLSN() != before {
		t.Errorf("the refused placement logged %d record(s)", gl.LastLSN()-before)
	}
}
