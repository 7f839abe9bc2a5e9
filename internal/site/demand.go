package site

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/wire"
)

// This file is the demand-driven rebalancing subsystem: each site
// tracks how fast its local quota is being consumed (plus what it
// could not serve), gossips that estimate to peers in DemandAdvert
// messages, and ships surplus toward the largest observed deficit with
// ordinary Rds transfers. The paper leaves "the best ways to
// distribute the data values among the sites" open (§8); this is the
// decentralized answer: no global view, no coordinator — every input
// is either local or carried by the existing envelope path, and every
// transfer is a Virtual Message, so partitions and crashes cannot lose
// or duplicate value.

// rebalanceFloor is the fraction of the even share every site keeps
// regardless of demand (core.DemandShares).
const rebalanceFloor = 0.25

// minTransfer is the hysteresis dead-band: ship surplus only when both
// the local surplus and the peer's deficit reach it.
const minTransfer core.Value = 4

// RebalanceConfig tunes the per-site demand-driven rebalancer.
type RebalanceConfig struct {
	// Enabled starts the rebalancer goroutine with the site.
	Enabled bool
	// Interval is the base advert/rebalance pace. Each tick is
	// jittered over [Interval/2, 3·Interval/2) so concurrent sites
	// never fall into lockstep rounds; transfers of one item from this
	// site are at least 2·Interval apart. Default 50ms.
	Interval time.Duration
	// HalfLife sets how fast the demand EWMA decays. Default 8·Interval.
	HalfLife time.Duration
	// AdvertStale bounds how old a peer's advert may be and still
	// count: older entries (and peers that have gone quiet — down or
	// partitioned away) drop out of the rebalancing view. Default
	// 4·Interval.
	AdvertStale time.Duration
	// Seed drives the tick jitter (clusters derive a per-site seed).
	Seed int64
}

// withDefaults fills zero fields.
func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 8 * c.Interval
	}
	if c.AdvertStale <= 0 {
		c.AdvertStale = 4 * c.Interval
	}
	return c
}

// itemDemand is one item's demand cell (itemState.demand, guarded by
// the item's stripe): an impulse-decay EWMA (each recorded amount is
// added whole; the accumulator halves every HalfLife) plus the
// hysteresis timestamp of the item's last outbound rebalance transfer.
// Crash discards it with the rest of the item's volatile state: demand
// is a hint, rebuilt from live traffic after restart.
type itemDemand struct {
	ewma         float64
	lastSample   time.Time
	lastTransfer time.Time
}

// decayTo brings the accumulator forward to now.
func (d *itemDemand) decayTo(now time.Time, halfLife time.Duration) {
	if d.lastSample.IsZero() {
		d.lastSample = now
		return
	}
	dt := now.Sub(d.lastSample)
	if dt <= 0 {
		return
	}
	d.ewma *= math.Exp2(-float64(dt) / float64(halfLife))
	d.lastSample = now
}

// add folds amount units of observed demand (consumption or shortfall)
// into the EWMA.
func (d *itemDemand) add(amount core.Value, now time.Time, halfLife time.Duration) {
	if amount <= 0 {
		return
	}
	d.decayTo(now, halfLife)
	d.ewma += float64(amount)
}

// level reads the decayed demand estimate.
func (d *itemDemand) level(now time.Time, halfLife time.Duration) float64 {
	d.decayTo(now, halfLife)
	return d.ewma
}

// cooldownOK reports whether the item is outside its transfer
// cooldown, and if so stamps now as the last transfer time
// (test-and-set, so concurrent ticks cannot double-send).
func (d *itemDemand) cooldownOK(now time.Time, cooldown time.Duration) bool {
	if !d.lastTransfer.IsZero() && now.Sub(d.lastTransfer) < cooldown {
		return false
	}
	d.lastTransfer = now
	return true
}

// demandOf reads item's decayed demand estimate under its stripe.
func (s *Site) demandOf(item ident.ItemID, now time.Time) float64 {
	stripe, st := s.lockItem(item)
	defer stripe.Unlock()
	return st.demand.level(now, s.cfg.Rebalance.HalfLife)
}

// peerAdvert is the latest demand advert received from one peer.
type peerAdvert struct {
	at      time.Time
	entries map[ident.ItemID]wire.DemandEntry
}

// demandTracker holds the freshest demand advert from each peer — the
// half of the rebalancer's view that is not per-item local state, and
// that no commit touches. Safe for concurrent use.
type demandTracker struct {
	cfg RebalanceConfig

	mu      sync.Mutex
	adverts map[ident.SiteID]*peerAdvert
}

func newDemandTracker(cfg RebalanceConfig) *demandTracker {
	return &demandTracker{cfg: cfg, adverts: make(map[ident.SiteID]*peerAdvert)}
}

// reset forgets the peers' adverts (restart: the view is rebuilt from
// live gossip).
func (t *demandTracker) reset() {
	t.mu.Lock()
	t.adverts = make(map[ident.SiteID]*peerAdvert)
	t.mu.Unlock()
}

// observeAdvert installs a peer's latest advert, replacing the
// previous one wholesale (adverts carry the peer's full item view).
func (t *demandTracker) observeAdvert(from ident.SiteID, entries []wire.DemandEntry, now time.Time) {
	m := make(map[ident.ItemID]wire.DemandEntry, len(entries))
	for _, e := range entries {
		m[e.Item] = e
	}
	t.mu.Lock()
	t.adverts[from] = &peerAdvert{at: now, entries: m}
	t.mu.Unlock()
}

// peerShare is one reachable peer's advertised state for an item.
type peerShare struct {
	site   ident.SiteID
	demand float64
	have   core.Value
}

// peerView returns every peer with a fresh advert mentioning item.
// Peers whose adverts have aged past AdvertStale — down, partitioned
// away, or simply not advertising — are excluded: only currently
// reachable peers take part in rebalancing.
func (t *demandTracker) peerView(item ident.ItemID, now time.Time) []peerShare {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []peerShare
	for p, adv := range t.adverts {
		if now.Sub(adv.at) > t.cfg.AdvertStale {
			continue
		}
		e, ok := adv.entries[item]
		if !ok {
			continue
		}
		out = append(out, peerShare{site: p, demand: float64(e.Demand) / 1000, have: e.Have})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].site < out[j].site })
	return out
}

// --- the per-site rebalancer loop -------------------------------------------

// maxAdvertItems bounds one advert's entry count; the hottest items
// win when a site holds more.
const maxAdvertItems = 256

// minDemandSignal is the quiescence threshold: when the whole view's
// demand has decayed below this, the item is left where it lies — no
// anticipatory reshuffling, so an idle cluster goes (and stays) quiet.
const minDemandSignal = 0.5

// SetRebalancePaused pauses (true) or resumes (false) this site's
// rebalancer. Pausing joins a transfer in flight, so after the call
// none is running or will start (harness barriers rely on it). The
// flag survives crashes.
func (s *Site) SetRebalancePaused(p bool) {
	s.rebalPaused.Store(p)
	if p {
		s.fence()
	}
}

// rebalanceLoop is the per-site rebalancer goroutine: each jittered
// tick advertises local demand to every peer and ships at most one
// surplus transfer per item toward the largest observed deficit.
// Mirrors retransmitLoop's lifecycle (started by Start, joined by
// Crash, which stops its pending tick).
func (s *Site) rebalanceLoop(stop <-chan struct{}) {
	cfg := s.cfg.Rebalance
	rng := rand.New(rand.NewSource(cfg.Seed))
	for {
		// Jittered pace: uniform over [Interval/2, 3·Interval/2), so
		// concurrent sites' rounds drift apart instead of racing each
		// other's quota reads in lockstep.
		d := cfg.Interval/2 + time.Duration(rng.Int63n(int64(cfg.Interval)))
		tick := s.cfg.Clock.NewTimer(d)
		select {
		case <-stop:
			tick.Stop()
			return
		case <-tick.C():
		}
		if s.rebalPaused.Load() {
			continue
		}
		s.advertiseDemand()
		s.rebalanceTick()
	}
}

// advertiseDemand gossips this site's per-item demand estimate and
// holdings to every peer. Fire-and-forget: adverts are advisory, the
// next tick resends, so loss costs one interval of staleness at most.
func (s *Site) advertiseDemand() {
	now := s.cfg.Clock.Now()
	items := s.cfg.DB.Items()
	entries := make([]wire.DemandEntry, 0, len(items))
	for _, item := range items {
		entries = append(entries, wire.DemandEntry{
			Item:   item,
			Demand: uint64(s.demandOf(item, now)*1000 + 0.5),
			Have:   s.cfg.DB.Value(item),
		})
	}
	if len(entries) > maxAdvertItems {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Demand > entries[j].Demand })
		entries = entries[:maxAdvertItems]
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Item < entries[j].Item })
	s.obsm.flight.Recordf(s.obsm.site, "advert-send", "items=%d peers=%d", len(entries), len(s.cfg.Peers)-1)
	for _, p := range s.peersExceptSelf() {
		s.send(p, &wire.DemandAdvert{Entries: entries})
		s.obsm.advertsSent.Inc()
	}
}

// rebalanceTick walks the local items and, for each, compares this
// site's holding against its demand-weighted share of what the
// reachable view holds. Surplus at least minTransfer beyond the target
// ships to the single largest-deficit peer (one transfer per item per
// tick, bounding transfer volume); the per-item cooldown (2·Interval)
// and the minTransfer dead-band on both ends stop oscillation.
func (s *Site) rebalanceTick() {
	cfg := s.cfg.Rebalance
	now := s.cfg.Clock.Now()
	for _, item := range s.cfg.DB.Items() {
		view := s.demand.peerView(item, now)
		if len(view) == 0 {
			continue
		}
		myDemand := s.demandOf(item, now)
		demands := make([]float64, 0, len(view)+1)
		demands = append(demands, myDemand)
		total := s.cfg.DB.Value(item)
		totalDemand := myDemand
		for _, ps := range view {
			demands = append(demands, ps.demand)
			total += ps.have
			totalDemand += ps.demand
		}
		if totalDemand < minDemandSignal {
			continue
		}
		targets := core.DemandShares(total, demands, rebalanceFloor)
		surplus := s.cfg.DB.Value(item) - targets[0]
		if surplus < minTransfer {
			continue
		}
		best, bestDeficit := -1, core.Value(0)
		for k, ps := range view {
			if deficit := targets[k+1] - ps.have; deficit > bestDeficit {
				best, bestDeficit = k, deficit
			}
		}
		if best < 0 || bestDeficit < minTransfer {
			continue
		}
		amount := surplus
		if bestDeficit < amount {
			amount = bestDeficit
		}
		stripe, st := s.lockItem(item)
		cooled := st.demand.cooldownOK(now, 2*cfg.Interval)
		stripe.Unlock()
		if !cooled {
			continue
		}
		if err := s.sendValue(item, view[best].site, amount, true); err == nil {
			s.obsm.rebalTransfers.Inc()
			s.obsm.rebalMoved.Add(uint64(amount))
			s.obsm.flight.Recordf(s.obsm.site, "rebal-transfer",
				"item=%s to=%v amount=%d surplus=%d deficit=%d", item, view[best].site, amount, surplus, bestDeficit)
		} else {
			s.obsm.flight.Recordf(s.obsm.site, "rebal-skip", "item=%s to=%v amount=%d err=%v", item, view[best].site, amount, err)
		}
	}
}

// recordDeficit feeds a timeout abort's residual shortfall into the
// demand EWMA and the deficit counter — the "what we could not serve"
// half of the demand signal (the other half, committed consumption, is
// recorded by the commit itself under the stripes it holds). Recording
// the unmet need, not just consumption, is what pulls quota toward
// sites whose demand exceeds their holding.
func (s *Site) recordDeficit(needs []itemNeed) {
	now := s.cfg.Clock.Now()
	counted := false
	for _, n := range needs {
		stripe, st := s.lockItem(n.item)
		if have := s.cfg.DB.Value(n.item); have < n.need {
			st.demand.add(n.need-have, now, s.cfg.Rebalance.HalfLife)
			counted = true
		}
		stripe.Unlock()
	}
	if counted {
		s.obsm.deficitAborts.Inc()
	}
}
