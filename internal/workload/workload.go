// Package workload generates the application traffic the paper's §3
// and §8 motivate — airline reservations, banking / electronic funds
// transfer, and inventory control — as streams of transaction
// descriptions for either the DvP system or the baselines.
//
// Generators are deterministic for a given seed, so experiments are
// reproducible and DvP/baseline comparisons see identical demand.
package workload

import (
	"fmt"
	"math/rand"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/txn"
)

// Kind names a workload family.
type Kind uint8

// Families.
const (
	// Airline: reserve k seats / cancel k seats / occasional audit
	// (full read) across F flights — the paper's running example.
	Airline Kind = iota + 1
	// Banking: deposits, withdrawals, transfers between accounts,
	// occasional balance audit.
	Banking
	// Inventory: orders (decrement) and restocks (increment) on SKUs
	// with a configurable hot-spot skew.
	Inventory
)

func (k Kind) String() string {
	switch k {
	case Airline:
		return "airline"
	case Banking:
		return "banking"
	case Inventory:
		return "inventory"
	default:
		return "workload?"
	}
}

// Config parameterizes a generator.
type Config struct {
	Kind Kind
	// Seed drives all sampling (0 means 1).
	Seed int64
	// Items is the number of distinct data items (flights, accounts,
	// SKUs). Default 4.
	Items int
	// Zipf skews item popularity; 0 disables (uniform). Values
	// around 1.2–2 concentrate traffic on few items (hot spots).
	Zipf float64
	// MaxAmount bounds per-transaction quantities. Default 5.
	MaxAmount int
	// ReadFraction is the probability a transaction is a full-value
	// audit read (expensive under DvP — experiment T4's sweep).
	ReadFraction float64
	// CancelFraction is the probability of an increment (cancel /
	// deposit / restock) rather than a decrement. Default 0.3.
	CancelFraction float64
	// Ask is the redistribution request policy for DvP transactions.
	Ask txn.AskPolicy
}

// Generator produces transactions.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// New builds a generator.
func New(cfg Config) *Generator {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Items <= 0 {
		cfg.Items = 4
	}
	if cfg.MaxAmount <= 0 {
		cfg.MaxAmount = 5
	}
	if cfg.CancelFraction == 0 {
		cfg.CancelFraction = 0.3
	}
	if cfg.Ask == 0 {
		cfg.Ask = txn.AskAll
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Zipf > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.Zipf, 1, uint64(cfg.Items-1))
	}
	return g
}

// ItemIDs returns the item identifiers this generator draws from.
func (g *Generator) ItemIDs() []ident.ItemID {
	out := make([]ident.ItemID, g.cfg.Items)
	for i := range out {
		out[i] = g.itemName(i)
	}
	return out
}

func (g *Generator) itemName(i int) ident.ItemID {
	switch g.cfg.Kind {
	case Banking:
		return ident.ItemID(fmt.Sprintf("acct/%03d", i))
	case Inventory:
		return ident.ItemID(fmt.Sprintf("sku/%03d", i))
	default:
		return ident.ItemID(fmt.Sprintf("flight/%c", 'A'+i%26)) + ident.ItemID(fmt.Sprintf("%d", i/26))
	}
}

func (g *Generator) pickItem() ident.ItemID {
	if g.zipf != nil {
		return g.itemName(int(g.zipf.Uint64()))
	}
	return g.itemName(g.rng.Intn(g.cfg.Items))
}

func (g *Generator) amount() core.Value {
	return core.Value(g.rng.Intn(g.cfg.MaxAmount) + 1)
}

// Next produces the next transaction.
func (g *Generator) Next() *txn.Txn {
	if g.cfg.ReadFraction > 0 && g.rng.Float64() < g.cfg.ReadFraction {
		return &txn.Txn{
			Reads: []ident.ItemID{g.pickItem()},
			Ask:   g.cfg.Ask,
			Label: "audit",
		}
	}
	switch g.cfg.Kind {
	case Banking:
		return g.nextBanking()
	default:
		return g.nextReserveCancel()
	}
}

// nextReserveCancel serves airline and inventory: a bounded decrement
// (reserve / order) or an increment (cancel / restock).
func (g *Generator) nextReserveCancel() *txn.Txn {
	item := g.pickItem()
	amt := g.amount()
	if g.rng.Float64() < g.cfg.CancelFraction {
		return &txn.Txn{
			Ops:   []txn.ItemOp{{Item: item, Op: core.Incr{M: amt}}},
			Ask:   g.cfg.Ask,
			Label: "cancel",
		}
	}
	return &txn.Txn{
		Ops:   []txn.ItemOp{{Item: item, Op: core.Decr{M: amt}}},
		Ask:   g.cfg.Ask,
		Label: "reserve",
	}
}

// nextBanking adds transfers: decrement one account, increment
// another, atomically in one transaction.
func (g *Generator) nextBanking() *txn.Txn {
	r := g.rng.Float64()
	item := g.pickItem()
	amt := g.amount()
	switch {
	case r < g.cfg.CancelFraction: // deposit
		return &txn.Txn{
			Ops:   []txn.ItemOp{{Item: item, Op: core.Incr{M: amt}}},
			Ask:   g.cfg.Ask,
			Label: "deposit",
		}
	case r < g.cfg.CancelFraction+0.2 && g.cfg.Items > 1: // transfer
		to := g.pickItem()
		for to == item {
			to = g.itemName(g.rng.Intn(g.cfg.Items))
		}
		return &txn.Txn{
			Ops: []txn.ItemOp{
				{Item: item, Op: core.Decr{M: amt}},
				{Item: to, Op: core.Incr{M: amt}},
			},
			Ask:   g.cfg.Ask,
			Label: "transfer",
		}
	default: // withdrawal
		return &txn.Txn{
			Ops:   []txn.ItemOp{{Item: item, Op: core.Decr{M: amt}}},
			Ask:   g.cfg.Ask,
			Label: "withdraw",
		}
	}
}
