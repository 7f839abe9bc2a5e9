// Package simnet is a fault-injecting in-process network: the
// failure-prone communication substrate of the paper's §1–§2. Links
// may lose, delay, duplicate and reorder messages; individual links
// can fail (in one or both directions, so "non-clean" partitions are
// expressible); and the whole network can be split into partition
// groups and later healed.
//
// Every message is serialized through internal/wire even though
// delivery is in-process, so the codec is exercised on every hop and
// no pointer ever aliases across a "site boundary".
//
// Faults are sampled from a seeded RNG: a given (seed, workload)
// produces a reproducible fault schedule, which the experiments rely
// on.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dvp/internal/ident"
	"dvp/internal/vclock"
	"dvp/internal/wire"
)

// Config tunes the network's behaviour.
type Config struct {
	// Seed drives all fault sampling. The zero seed means 1.
	Seed int64
	// MinDelay/MaxDelay bound per-message propagation delay
	// (uniform). Zero values mean "deliver promptly" (1–2ms on the
	// real clock keeps goroutine interleavings honest).
	MinDelay, MaxDelay time.Duration
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// OrderPreserving enforces the §6.2 "message order synchronicity"
	// assumption Conc2 requires: messages arriving at a site arrive
	// in global send order (one FIFO per destination, fed in send
	// order), so "if m_i arrives before m_j, then m_i was sent
	// earlier in real time".
	OrderPreserving bool
	// Clock schedules deliveries; defaults to the real clock.
	Clock vclock.Clock
}

// Stats counts network events; retrieve a snapshot with Net.Stats.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Lost       uint64 // random loss
	Cut        uint64 // dropped by partition/link-down
	Duplicated uint64
	Bytes      uint64
	ByKind     map[wire.Kind]uint64
}

type linkKey struct{ from, to ident.SiteID }

// Net is the simulated network. Create endpoints with Endpoint; drive
// failures with Partition/Heal/SetLink; inspect with Stats.
type Net struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	nodes  map[ident.SiteID]*endpoint
	group  map[ident.SiteID]int // partition group; all 0 when healed
	split  bool                 // a Partition is in effect
	down   map[linkKey]bool     // directional link failures
	filter func(from, to ident.SiteID, kind wire.Kind) bool
	stats  Stats
	tap    func(from, to ident.SiteID, kind wire.Kind, frame []byte)
	closed bool
	fifos  map[linkKey]chan deliverJob // OrderPreserving queues
	// pending counts in-flight messages. A plain WaitGroup would be
	// unsound here: Add() races with Wait() when the counter touches
	// zero between bursts, which is exactly Quiesce's situation.
	pending atomic.Int64
}

type deliverJob struct {
	buf   []byte
	to    *endpoint
	delay time.Duration
}

// New creates a network with the given configuration.
func New(cfg Config) *Net {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	return &Net{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		nodes: make(map[ident.SiteID]*endpoint),
		group: make(map[ident.SiteID]int),
		down:  make(map[linkKey]bool),
		fifos: make(map[linkKey]chan deliverJob),
		stats: Stats{ByKind: make(map[wire.Kind]uint64)},
	}
}

// Endpoint attaches (or re-attaches) site to the network. Re-attaching
// an existing site returns the same endpoint (a recovered site keeps
// its address).
func (n *Net) Endpoint(site ident.SiteID) wire.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.nodes[site]; ok {
		ep.closed = false // reopen inline: n.mu is already held
		return ep
	}
	ep := &endpoint{net: n, site: site}
	n.nodes[site] = ep
	return ep
}

// Partition splits the network into the given groups. Sites not named
// in any group are isolated in singleton groups — the paper's worst
// case. A second call replaces the first.
func (n *Net) Partition(groups ...[]ident.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[ident.SiteID]int)
	for i, g := range groups {
		for _, s := range g {
			n.group[s] = i + 1
		}
	}
	next := len(groups) + 1
	for s := range n.nodes {
		if _, ok := n.group[s]; !ok {
			n.group[s] = next
			next++
		}
	}
	n.split = true
}

// Heal removes any partition (link failures set with SetLink persist).
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.split = false
	n.group = make(map[ident.SiteID]int)
}

// SetLink fails or restores the directed link a→b. Failing only one
// direction yields the paper's "not clean" partial failures.
func (n *Net) SetLink(a, b ident.SiteID, up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if up {
		delete(n.down, linkKey{a, b})
	} else {
		n.down[linkKey{a, b}] = true
	}
}

// SetLoss adjusts the random message-loss probability at runtime.
// Fault schedules use it to flap lossiness mid-run; messages already
// in flight are unaffected.
func (n *Net) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.LossProb = p
}

// SetDup adjusts the message-duplication probability at runtime.
func (n *Net) SetDup(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DupProb = p
}

// ScheduleAfter runs fn once d has elapsed on the network's clock —
// the scheduled-fault hook: chaos schedules partition/heal/crash
// actions at virtual or real instants without owning a timer. fn is
// skipped (not run) if the network has been closed by then.
func (n *Net) ScheduleAfter(d time.Duration, fn func()) {
	ch := n.cfg.Clock.After(d)
	go func() {
		<-ch
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if !closed {
			fn()
		}
	}()
}

// Clock returns the clock the network schedules deliveries on. Tests
// driving a vclock.Virtual use it to advance simulated time.
func (n *Net) Clock() vclock.Clock { return n.cfg.Clock }

// SetTap installs a frame tap: it observes every marshaled envelope
// at the moment of transmission, before any loss/partition decision
// (nil disables). Fuzz-corpus capture and wire-level debugging hang
// off this; the callback runs on the sending goroutine under no locks
// and must not retain frame.
func (n *Net) SetTap(fn func(from, to ident.SiteID, kind wire.Kind, frame []byte)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = fn
}

// SetFilter installs a message filter: return false to drop the
// message (counted as Cut). Kind-selective drops let tests and
// experiments build precise fault scenarios — e.g. losing exactly the
// 2PC votes so participants prepare and then hang in doubt. Nil
// removes the filter.
func (n *Net) SetFilter(f func(from, to ident.SiteID, kind wire.Kind) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filter = f
}

// Stats returns a snapshot of the counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.ByKind = make(map[wire.Kind]uint64, len(n.stats.ByKind))
	for k, v := range n.stats.ByKind {
		out.ByKind[k] = v
	}
	return out
}

// Close stops all delivery. In-flight messages are dropped.
func (n *Net) Close() {
	n.mu.Lock()
	n.closed = true
	fifos := n.fifos
	n.fifos = make(map[linkKey]chan deliverJob)
	n.mu.Unlock()
	for _, ch := range fifos {
		close(ch)
	}
}

// Quiesce blocks until every in-flight message has been delivered or
// dropped. Tests use it (with the real clock) to drain the network
// before asserting on state.
func (n *Net) Quiesce() {
	for n.pending.Load() > 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// reachable reports whether a message from a to b passes partition and
// link checks. Caller holds n.mu.
func (n *Net) reachable(a, b ident.SiteID) bool {
	if n.down[linkKey{a, b}] {
		return false
	}
	if !n.split {
		return true
	}
	return n.group[a] == n.group[b]
}

// send is the transmission path shared by all endpoints.
func (n *Net) send(from *endpoint, env *wire.Envelope) error {
	env.From = from.site
	buf, err := env.Marshal()
	if err != nil {
		return err
	}
	kind := env.Msg.Kind()

	n.mu.Lock()
	tap := n.tap
	n.mu.Unlock()
	if tap != nil {
		tap(from.site, env.To, kind, buf)
	}

	n.mu.Lock()
	if n.closed || from.closed {
		n.mu.Unlock()
		return wire.ErrClosed
	}
	dst, ok := n.nodes[env.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %v", wire.ErrUnknownSite, env.To)
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(len(buf))
	n.stats.ByKind[kind]++
	if n.filter != nil && !n.filter(from.site, env.To, kind) {
		n.stats.Cut++
		n.mu.Unlock()
		return nil
	}
	if !n.reachable(from.site, env.To) {
		n.stats.Cut++
		n.mu.Unlock()
		return nil // silent loss: the sender cannot tell (§2.2)
	}
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.stats.Lost++
		n.mu.Unlock()
		return nil
	}
	copies := 1
	if n.cfg.DupProb > 0 && n.rng.Float64() < n.cfg.DupProb {
		copies = 2
		n.stats.Duplicated++
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		delays[i] = n.sampleDelayLocked()
	}
	n.mu.Unlock()

	for i := 0; i < copies; i++ {
		n.dispatch(from.site, dst, buf, delays[i])
	}
	return nil
}

func (n *Net) sampleDelayLocked() time.Duration {
	if n.cfg.MaxDelay <= 0 {
		return 0
	}
	span := n.cfg.MaxDelay - n.cfg.MinDelay
	if span <= 0 {
		return n.cfg.MinDelay
	}
	return n.cfg.MinDelay + time.Duration(n.rng.Int63n(int64(span)))
}

// dispatch schedules one delivery. In OrderPreserving mode deliveries
// go through a per-link FIFO worker; otherwise each message rides its
// own goroutine (random delays then reorder naturally).
func (n *Net) dispatch(from ident.SiteID, dst *endpoint, buf []byte, delay time.Duration) {
	n.pending.Add(1)
	if n.cfg.OrderPreserving {
		n.mu.Lock()
		// One queue per destination: arrival order at each site is
		// the global send order (§6.2 synchronicity), not merely
		// per-link FIFO.
		key := linkKey{0, dst.site}
		ch, ok := n.fifos[key]
		if !ok {
			ch = make(chan deliverJob, 4096)
			n.fifos[key] = ch
			go n.fifoWorker(ch)
		}
		n.mu.Unlock()
		select {
		case ch <- deliverJob{buf: buf, to: dst, delay: delay}:
		default:
			n.pending.Add(-1) // queue overflow: drop (backpressure)
		}
		return
	}
	go func() {
		defer n.pending.Add(-1)
		if delay > 0 {
			n.cfg.Clock.Sleep(delay)
		}
		n.deliver(dst, buf)
	}()
}

func (n *Net) fifoWorker(ch chan deliverJob) {
	for job := range ch {
		if job.delay > 0 {
			n.cfg.Clock.Sleep(job.delay)
		}
		n.deliver(job.to, job.buf)
		n.pending.Add(-1)
	}
}

func (n *Net) deliver(dst *endpoint, buf []byte) {
	n.mu.Lock()
	if n.closed || dst.closed {
		n.mu.Unlock()
		return
	}
	h := dst.handler
	n.stats.Delivered++
	n.mu.Unlock()
	if h == nil {
		return
	}
	env, err := wire.Unmarshal(buf)
	if err != nil {
		// A corrupt frame would be a codec bug, not a simulated
		// fault; surface loudly.
		panic(fmt.Sprintf("simnet: corrupt frame in delivery: %v", err))
	}
	h(env)
}

// endpoint implements wire.Endpoint on a Net.
type endpoint struct {
	net     *Net
	site    ident.SiteID
	handler wire.Handler // guarded by net.mu
	closed  bool         // guarded by net.mu
}

// Site implements wire.Endpoint.
func (e *endpoint) Site() ident.SiteID { return e.site }

// Send implements wire.Endpoint.
func (e *endpoint) Send(env *wire.Envelope) error { return e.net.send(e, env) }

// SetHandler implements wire.Endpoint.
func (e *endpoint) SetHandler(h wire.Handler) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.handler = h
}

// Open implements wire.Endpoint: re-attach after a Close.
func (e *endpoint) Open() error {
	e.reopen()
	return nil
}

// Close implements wire.Endpoint: the site detaches; messages to and
// from it are dropped until Endpoint is called again for the site.
func (e *endpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closed = true
	e.handler = nil
	return nil
}

func (e *endpoint) reopen() {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closed = false
}
