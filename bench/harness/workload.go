package harness

import (
	"math/rand"
	"strconv"
)

// Items is the number of data items every workload runs over
// (it/0 … it/63); Conns is the number of closed-loop control-port
// connections the load generator holds, all to site 1.
const (
	Items = 64
	Conns = 2
	// plenty is a share no workload can exhaust.
	plenty = 1_000_000_000
)

// Verb is a control-port command the generator issues.
type Verb uint8

const (
	Reserve Verb = iota
	Cancel
	Read
)

func (v Verb) String() string { return [...]string{"RESERVE", "CANCEL", "READ"}[v] }

// Cmd is one generated command. dvpnode sees only Line().
type Cmd struct {
	Verb   Verb
	Item   int
	Amount int64
}

// Line renders the command as the control port expects it, newline
// included.
func (c Cmd) Line() string {
	if c.Verb == Read {
		return "READ it/" + strconv.Itoa(c.Item) + "\n"
	}
	return c.Verb.String() + " it/" + strconv.Itoa(c.Item) + " " + strconv.FormatInt(c.Amount, 10) + "\n"
}

// pattern is a traffic shape over a range of items.
type pattern uint8

const (
	// patLocal: half RESERVE 1, half CANCEL 1 — never short where the
	// site holds plenty.
	patLocal pattern = iota
	// patShortfall: RESERVE 2 against a site that keeps exactly 1, so
	// every op is short by exactly 1 and asks both peers.
	patShortfall
	// patRead: full READ, which gathers every share at the reader.
	patRead
)

// connPlan is what one connection sends: a pattern over items
// [lo, hi), item uniform in the range.
type connPlan struct {
	pat    pattern
	lo, hi int
}

// phase is one stretch of load. opsPerSecond == 0 means the phase runs
// for the window's length; otherwise it runs a fixed count,
// opsPerSecond × the window's nominal seconds split over the
// connections, so the log a phase leaves behind does not depend on how
// fast the system under test commits.
type phase struct {
	conns        [Conns]connPlan
	opsPerSecond int
}

// shares are one item's initial local shares at sites 1..3.
type shares [3]int64

var (
	sharesLocal     = shares{plenty, plenty, plenty}
	sharesShortfall = shares{0, plenty, plenty}
)

// Workload is one traffic mix and the cluster configuration it runs
// against.
type Workload struct {
	Name string
	Why  string
	// Sync starts the nodes with -sync (every log force is an fsync).
	Sync bool
	// share gives item k's initial shares.
	share func(k int) shares
	// phases run back to back inside the measured window.
	phases []phase
	// restartsPerSecond × nominal seconds SIGKILL/respawn cycles of
	// site 1 follow the window (crash_restart only).
	restartsPerSecond float64
}

func uniformShares(s shares) func(int) shares { return func(int) shares { return s } }

// split gives each connection its own half of [lo, hi), so two
// connections never contend for an item: conflict is
// hot_item_durable's and audit_mix's subject, and everywhere else a
// collision would turn exact per-op counts into timing-dependent ones.
func split(p pattern, lo, hi int) [Conns]connPlan {
	mid := (lo + hi) / 2
	return [Conns]connPlan{{p, lo, mid}, {p, mid, hi}}
}

// Workloads are the six fixed workloads, in report order.
var Workloads = []Workload{
	{
		Name:   "local_durable",
		Why:    "the paper's common case: every commit is local, so the log force dominates and wire/tcpnet/vmsg stay idle",
		Sync:   true,
		share:  uniformShares(sharesLocal),
		phases: []phase{{conns: split(patLocal, 0, Items)}},
	},
	{
		Name:   "local_cpu",
		Why:    "same traffic without fsync: ctl, admission, lock, encode, store apply and obs dominate; a force-count change must move nothing here",
		Sync:   false,
		share:  uniformShares(sharesLocal),
		phases: []phase{{conns: split(patLocal, 0, Items)}},
	},
	{
		Name:   "shortfall_durable",
		Why:    "every op is short by 1 and needs a redistribution: wire, tcpnet, vmsg, inbound handlers and the donors' logs do most of the work",
		Sync:   true,
		share:  uniformShares(sharesShortfall),
		phases: []phase{{conns: split(patShortfall, 0, Items)}},
	},
	{
		Name:   "hot_item_durable",
		Why:    "both connections hit it/0: the no-wait lock is held across the force, so a change that lengthens the hold shows as aborts",
		Sync:   true,
		share:  uniformShares(sharesLocal),
		phases: []phase{{conns: [Conns]connPlan{{patLocal, 0, 1}, {patLocal, 0, 1}}}},
	},
	{
		Name:   "audit_mix",
		Why:    "one writer beside one full-READ connection at the same site: reads drive the gather-everything path and lock items the writer wants",
		Sync:   true,
		share:  uniformShares(sharesLocal),
		phases: []phase{{conns: [Conns]connPlan{{patLocal, 0, Items}, {patRead, 0, Items}}}},
	},
	{
		Name: "crash_restart",
		Why:  "fixed-count load, then SIGKILL and respawn site 1 on its log: independent recovery with a log length that does not depend on throughput",
		Sync: false,
		share: func(k int) shares {
			if k < Items/2 {
				return sharesLocal
			}
			return sharesShortfall
		},
		phases: []phase{
			{conns: split(patLocal, 0, Items/2), opsPerSecond: 3000},
			{conns: split(patShortfall, Items/2, Items), opsPerSecond: 500},
		},
		restartsPerSecond: 1.5,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Total is item k's system-wide total at the start.
func (w Workload) Total(k int) int64 {
	s := w.share(k)
	return s[0] + s[1] + s[2]
}

// createArg is the -create flag value for one site (1-based).
func (w Workload) createArg(site int) string {
	b := make([]byte, 0, Items*20)
	for k := 0; k < Items; k++ {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, "it/"...)
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, w.share(k)[site-1], 10)
	}
	return string(b)
}

// prime lists the set-up ops that bring the shortfall items to their
// steady state: after one RESERVE 1 (short by 1, both peers grant 1)
// site 1 keeps exactly 1, and every later RESERVE 2 is short by 1.
func (w Workload) prime() []Cmd {
	var cmds []Cmd
	for k := 0; k < Items; k++ {
		if w.share(k) == sharesShortfall {
			cmds = append(cmds, Cmd{Reserve, k, 1})
		}
	}
	return cmds
}

// Gen is one connection's deterministic command source.
type Gen struct {
	plan connPlan
	rng  *rand.Rand
}

// NewGen seeds the generator of connection conn in phase ph of
// workload w. stream tells the warm-up's generators (1) from the
// window's (0) so the two never replay each other.
func (w Workload) NewGen(seed int64, ph, conn, stream int) *Gen {
	mix := seed*1_000_003 + int64(ph)*10_007 + int64(conn)*101 + int64(stream)
	return &Gen{plan: w.phases[ph].conns[conn], rng: rand.New(rand.NewSource(mix))}
}

// Next draws the next command.
func (g *Gen) Next() Cmd {
	k := g.plan.lo + g.rng.Intn(g.plan.hi-g.plan.lo)
	switch g.plan.pat {
	case patShortfall:
		return Cmd{Reserve, k, 2}
	case patRead:
		return Cmd{Read, k, 0}
	default:
		if g.rng.Intn(2) == 0 {
			return Cmd{Reserve, k, 1}
		}
		return Cmd{Cancel, k, 1}
	}
}

// phaseOps is how many ops each connection sends in a counted phase.
func (p phase) phaseOps(seconds int) int { return p.opsPerSecond * seconds / Conns }

// serialGen interleaves the workload's connection plans into the one
// stream the traced run drives: plans alternate op by op, and counted
// phases appear in proportion to their op counts (6 local : 1
// shortfall for crash_restart).
type serialGen struct {
	gens  [][Conns]*Gen
	cycle []int // phase index per slot of one cycle
	i     int
}

func (w Workload) newSerialGen(seed int64) *serialGen {
	s := &serialGen{}
	div := 0
	for _, p := range w.phases {
		div = gcd(div, p.opsPerSecond)
	}
	for ph, p := range w.phases {
		var gs [Conns]*Gen
		for c := range gs {
			gs[c] = w.NewGen(seed, ph, c, 2)
		}
		s.gens = append(s.gens, gs)
		slots := 1
		if div > 0 {
			slots = p.opsPerSecond / div
		}
		for ; slots > 0; slots-- {
			s.cycle = append(s.cycle, ph)
		}
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (s *serialGen) Next() Cmd {
	ph := s.cycle[s.i%len(s.cycle)]
	g := s.gens[ph][(s.i/len(s.cycle))%Conns]
	s.i++
	return g.Next()
}
