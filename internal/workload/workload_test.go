package workload

import (
	"testing"

	"dvp/internal/txn"
)

func TestDeterministicForSeed(t *testing.T) {
	g1 := New(Config{Kind: Airline, Seed: 7, Items: 3})
	g2 := New(Config{Kind: Airline, Seed: 7, Items: 3})
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Label != b.Label {
			t.Fatalf("step %d: labels differ: %s vs %s", i, a.Label, b.Label)
		}
		if len(a.Ops) != len(b.Ops) {
			t.Fatalf("step %d: op counts differ", i)
		}
		for j := range a.Ops {
			if a.Ops[j].Item != b.Ops[j].Item || a.Ops[j].Op.Delta() != b.Ops[j].Op.Delta() {
				t.Fatalf("step %d: ops differ", i)
			}
		}
	}
}

func TestItemNamesByKind(t *testing.T) {
	cases := map[Kind]string{
		Airline:   "flight/A0",
		Banking:   "acct/000",
		Inventory: "sku/000",
	}
	for kind, want := range cases {
		g := New(Config{Kind: kind, Items: 2})
		if got := g.ItemIDs()[0]; string(got) != want {
			t.Errorf("%v first item = %q, want %q", kind, got, want)
		}
	}
}

func TestReadFraction(t *testing.T) {
	g := New(Config{Kind: Airline, Seed: 3, Items: 4, ReadFraction: 0.5})
	reads := 0
	const total = 2000
	for i := 0; i < total; i++ {
		if len(g.Next().Reads) > 0 {
			reads++
		}
	}
	if reads < total*40/100 || reads > total*60/100 {
		t.Errorf("read fraction = %d/%d, want ~50%%", reads, total)
	}
}

func TestZeroReadFractionHasNoReads(t *testing.T) {
	g := New(Config{Kind: Inventory, Seed: 4, Items: 4})
	for i := 0; i < 500; i++ {
		if len(g.Next().Reads) != 0 {
			t.Fatal("read generated with ReadFraction=0")
		}
	}
}

func TestAmountsBounded(t *testing.T) {
	g := New(Config{Kind: Airline, Seed: 5, Items: 2, MaxAmount: 3})
	for i := 0; i < 500; i++ {
		tx := g.Next()
		for _, op := range tx.Ops {
			d := op.Op.Delta()
			if d == 0 || d > 3 || d < -3 {
				t.Fatalf("amount out of bounds: %d", d)
			}
		}
	}
}

func TestZipfConcentrates(t *testing.T) {
	g := New(Config{Kind: Inventory, Seed: 6, Items: 10, Zipf: 2.0})
	counts := map[string]int{}
	const total = 3000
	for i := 0; i < total; i++ {
		tx := g.Next()
		if len(tx.Ops) > 0 {
			counts[string(tx.Ops[0].Item)]++
		}
	}
	if counts["sku/000"] < total/2 {
		t.Errorf("zipf 2.0: hottest item got %d/%d, want >half", counts["sku/000"], total)
	}
}

func TestBankingTransfersAreAtomicPairs(t *testing.T) {
	g := New(Config{Kind: Banking, Seed: 8, Items: 5})
	sawTransfer := false
	for i := 0; i < 1000; i++ {
		tx := g.Next()
		if tx.Label != "transfer" {
			continue
		}
		sawTransfer = true
		if len(tx.Ops) != 2 {
			t.Fatalf("transfer with %d ops", len(tx.Ops))
		}
		if tx.Ops[0].Op.Delta()+tx.Ops[1].Op.Delta() != 0 {
			t.Fatal("transfer deltas must net to zero")
		}
		if tx.Ops[0].Item == tx.Ops[1].Item {
			t.Fatal("self-transfer generated")
		}
	}
	if !sawTransfer {
		t.Error("no transfers in 1000 banking txns")
	}
}

func TestAskPolicyPropagates(t *testing.T) {
	g := New(Config{Kind: Airline, Seed: 9, Items: 2, Ask: txn.AskOne})
	if g.Next().Ask != txn.AskOne {
		t.Error("ask policy not propagated")
	}
}

func TestKindStrings(t *testing.T) {
	if Airline.String() != "airline" || Banking.String() != "banking" ||
		Inventory.String() != "inventory" || Kind(9).String() != "workload?" {
		t.Error("kind strings")
	}
}
