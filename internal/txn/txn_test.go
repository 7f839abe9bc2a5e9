package txn

import (
	"testing"

	"dvp/internal/core"
	"dvp/internal/ident"
)

func TestItemsDedupSorted(t *testing.T) {
	tx := &Txn{
		Ops: []ItemOp{
			{Item: "b", Op: core.Decr{M: 1}},
			{Item: "a", Op: core.Incr{M: 2}},
			{Item: "b", Op: core.Incr{M: 1}},
		},
		Reads: []ident.ItemID{"c", "a"},
	}
	got := tx.Items()
	want := []ident.ItemID{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Items = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Items = %v, want %v", got, want)
		}
	}
}

func TestNeedsComposesPerItem(t *testing.T) {
	tx := &Txn{Ops: []ItemOp{
		{Item: "a", Op: core.Incr{M: 1}},
		{Item: "a", Op: core.Decr{M: 5}}, // dip: needs 4 up front
		{Item: "b", Op: core.Decr{M: 2}},
		{Item: "c", Op: core.Incr{M: 9}},
	}}
	needs := tx.Needs()
	if needs["a"] != 4 || needs["b"] != 2 || needs["c"] != 0 {
		t.Errorf("Needs = %v", needs)
	}
}

func TestDeltasNet(t *testing.T) {
	tx := &Txn{Ops: []ItemOp{
		{Item: "a", Op: core.Decr{M: 3}},
		{Item: "a", Op: core.Incr{M: 1}},
		{Item: "b", Op: core.Incr{M: 7}},
	}}
	d := tx.Deltas()
	if d["a"] != -2 || d["b"] != 7 {
		t.Errorf("Deltas = %v", d)
	}
}

func TestAskPolicyFanout(t *testing.T) {
	if AskAll.Fanout(7) != 7 {
		t.Error("AskAll fanout")
	}
	if AskOne.Fanout(7) != 1 || AskOne.Fanout(0) != 0 {
		t.Error("AskOne fanout")
	}
	if AskTwo.Fanout(7) != 2 || AskTwo.Fanout(1) != 1 {
		t.Error("AskTwo fanout")
	}
}

func TestStatusStrings(t *testing.T) {
	statuses := []Status{StatusCommitted, StatusLockConflict, StatusCCRejected, StatusTimeout, StatusSiteDown}
	seen := map[string]bool{}
	for _, s := range statuses {
		str := s.String()
		if str == "" || seen[str] {
			t.Errorf("status %d: bad/dup string %q", s, str)
		}
		seen[str] = true
	}
	if Status(99).String() != "status?" {
		t.Error("unknown status")
	}
}

func TestAskPolicyStrings(t *testing.T) {
	if AskAll.String() != "ask-all" || AskOne.String() != "ask-one" ||
		AskTwo.String() != "ask-two" || AskPolicy(9).String() != "ask?" {
		t.Error("ask policy strings")
	}
}

func TestResultCommitted(t *testing.T) {
	r := &Result{Status: StatusCommitted}
	if !r.Committed() {
		t.Error("Committed() false for committed result")
	}
	r.Status = StatusTimeout
	if r.Committed() {
		t.Error("Committed() true for timeout")
	}
}
