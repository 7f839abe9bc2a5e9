package site

import (
	"sync"
	"sync/atomic"
	"time"

	"dvp/internal/ident"
	"dvp/internal/metrics"
	"dvp/internal/obs"
	"dvp/internal/txn"
)

// peerObs holds the per-peer counters for one remote site.
type peerObs struct {
	// asksSent counts §5 step-2 quota requests we sent to the peer.
	asksSent *metrics.Counter
	// honored / declined count requests *from* the peer by our
	// decision — honored/(honored+declined) is the honor rate.
	honored  *metrics.Counter
	declined *metrics.Counter
	// vmCreated counts Vm we created toward the peer; vmAccepted and
	// vmDups count inbound Vm from the peer accepted exactly-once vs
	// dropped as duplicates.
	vmCreated  *metrics.Counter
	vmAccepted *metrics.Counter
	vmDups     *metrics.Counter
	// sendErrs counts envelopes toward the peer the endpoint refused —
	// loss to the protocol, counted so it is not silent.
	sendErrs *metrics.Counter
}

// siteObs bundles the site's resolved metric handles. With no registry
// configured the handles are orphan (working but unregistered)
// counters, so recording sites never branch.
type siteObs struct {
	reg    *obs.Registry // nil disables dynamic per-label histograms
	site   string
	ring   *obs.Ring
	flight *obs.Flight // nil disables flight recording

	retx     *metrics.Counter
	outcomes map[txn.Status]*metrics.Counter
	peers    map[ident.SiteID]*peerObs
	orphan   *peerObs // fallback for traffic from unconfigured peers

	// steps holds the pre-resolved per-protocol-step latency
	// histograms (dvp_step_seconds{step=...}): the §5 steps of the
	// local protocol run plus the remote-hop segments.
	steps map[string]*metrics.Histogram

	// Demand-driven rebalancing series: advert gossip volume in both
	// directions, transfers shipped (count and value moved), and
	// timeout aborts that died with an unmet shortfall — the signal
	// the rebalancer exists to shrink.
	advertsSent    *metrics.Counter
	advertsRecv    *metrics.Counter
	rebalTransfers *metrics.Counter
	rebalMoved     *metrics.Counter
	deficitAborts  *metrics.Counter

	// Fast-restart series: checkpoints taken and their record bytes,
	// recovery wall time and the records replayed after the chosen
	// checkpoint — the observable evidence that restart cost is
	// bounded by the suffix, not the history.
	ckptTotal      *metrics.Counter
	ckptBytes      *metrics.Counter
	recoverLat     *metrics.Histogram
	recoverRecords *metrics.Counter

	// The no-wait shape of Run: write-only commits that needed no
	// redistribution, and write-only transactions that found a
	// shortfall under the stripes and had to ask. The series keep the
	// names they had when this shape was a separate fast path;
	// commits/(commits+fallbacks) is the hit rate experiment P2 plots
	// against the quota distribution.
	fastCommits   *metrics.Counter
	fastFallbacks *metrics.Counter

	// failStops counts the times the site stopped itself, by reason
	// (dvp_site_failstop_total{reason=...}); see failStop.
	failStops map[string]*metrics.Counter

	// txnLat caches the per-(label, outcome) latency histograms so the
	// commit path resolves dvp_site_txn_seconds through two map reads
	// instead of a registry lookup (whose variadic labels allocate on
	// every call). Keyed by label under an RWMutex — a sync.Map would
	// box the string key on every Load, allocating on the hot path.
	txnLatMu sync.RWMutex
	txnLat   map[string]*txnLatSet
}

// txnLatSet holds one label's latency histograms indexed by outcome
// status. Slots fill lazily with benign racing: the registry
// deduplicates by name+labels, so concurrent resolvers store the same
// handle.
type txnLatSet struct {
	byStatus [txn.StatusSiteDown + 1]atomic.Pointer[metrics.Histogram]
}

func newPeerObs(reg *obs.Registry, site, peer string) *peerObs {
	return &peerObs{
		asksSent:   reg.Counter("dvp_site_quota_asks_total", "site", site, "peer", peer),
		honored:    reg.Counter("dvp_site_requests_honored_total", "site", site, "peer", peer),
		declined:   reg.Counter("dvp_site_requests_declined_total", "site", site, "peer", peer),
		vmCreated:  reg.Counter("dvp_vmsg_created_total", "site", site, "peer", peer),
		vmAccepted: reg.Counter("dvp_vmsg_accepted_total", "site", site, "peer", peer),
		vmDups:     reg.Counter("dvp_vmsg_dup_drops_total", "site", site, "peer", peer),
		sendErrs:   reg.Counter("dvp_site_send_errors_total", "site", site, "peer", peer),
	}
}

// initObs resolves the site's metric handles against cfg.Metrics and
// instruments the Vm manager. Called once from New.
func (s *Site) initObs() {
	o := &s.obsm
	o.reg = s.cfg.Metrics
	o.ring = s.cfg.Trace
	o.flight = s.cfg.Flight
	o.site = s.cfg.ID.String()
	o.retx = o.reg.Counter("dvp_vmsg_retransmissions_total", "site", o.site)
	o.steps = make(map[string]*metrics.Histogram, 16)
	for _, step := range []string{
		"admit", "cc-check", "lock", "ask", "vm-accept", "wal-flush",
		"apply", "rds-create", "vm-apply",
	} {
		o.steps[step] = o.reg.Histogram("dvp_step_seconds", "site", o.site, "step", step)
	}
	// Parked foreign credits (the deferVm/ReqTxn gate): sampled at
	// exposition time from the items' state, so crash-clearing needs
	// no gauge bookkeeping.
	o.reg.GaugeFunc("dvp_rebalance_parked_credits",
		func() float64 { return float64(s.parkedCredits()) }, "site", o.site)
	o.outcomes = make(map[txn.Status]*metrics.Counter, 5)
	for _, st := range []txn.Status{
		txn.StatusCommitted, txn.StatusLockConflict, txn.StatusCCRejected,
		txn.StatusTimeout, txn.StatusSiteDown,
	} {
		o.outcomes[st] = o.reg.Counter("dvp_site_txn_total",
			"site", o.site, "outcome", st.String())
	}
	o.advertsSent = o.reg.Counter("dvp_rebalance_adverts_sent_total", "site", o.site)
	o.advertsRecv = o.reg.Counter("dvp_rebalance_adverts_recv_total", "site", o.site)
	o.rebalTransfers = o.reg.Counter("dvp_rebalance_transfers_total", "site", o.site)
	o.rebalMoved = o.reg.Counter("dvp_rebalance_value_moved_total", "site", o.site)
	o.deficitAborts = o.reg.Counter("dvp_site_deficit_aborts_total", "site", o.site)
	o.ckptTotal = o.reg.Counter("dvp_checkpoint_total", "site", o.site)
	o.ckptBytes = o.reg.Counter("dvp_checkpoint_bytes", "site", o.site)
	o.fastCommits = o.reg.Counter("dvp_fastpath_commits_total", "site", o.site)
	o.fastFallbacks = o.reg.Counter("dvp_fastpath_fallback_total", "site", o.site)
	o.failStops = make(map[string]*metrics.Counter, 8)
	for _, reason := range []string{
		"commit-force", "commit-apply", "create-force", "create-apply",
		"accept-force", "accept-apply", "checkpoint-force", "endpoint-open",
	} {
		o.failStops[reason] = o.reg.Counter("dvp_site_failstop_total", "site", o.site, "reason", reason)
	}
	o.txnLat = make(map[string]*txnLatSet, 8)
	o.recoverLat = o.reg.Histogram("dvp_recover_seconds", "site", o.site)
	o.recoverRecords = o.reg.Counter("dvp_recover_records_replayed", "site", o.site)
	o.peers = make(map[ident.SiteID]*peerObs, len(s.cfg.Peers))
	for _, p := range s.peersExceptSelf() {
		o.peers[p] = newPeerObs(o.reg, o.site, p.String())
	}
	var nilReg *obs.Registry
	o.orphan = newPeerObs(nilReg, "", "")
	s.vm.Instrument(o.reg, o.site, s.peersExceptSelf())
}

// forPeer returns the peer's counters, or inert orphans for a peer
// outside the configured set.
func (o *siteObs) forPeer(p ident.SiteID) *peerObs {
	if po, ok := o.peers[p]; ok {
		return po
	}
	return o.orphan
}

// observeStep records one protocol-step segment duration into
// dvp_step_seconds{step=...}. Known steps are pre-resolved; anything
// else registers lazily (or is dropped with no registry).
func (o *siteObs) observeStep(step string, d time.Duration) {
	if h, ok := o.steps[step]; ok {
		h.Record(d)
		return
	}
	if o.reg != nil {
		o.reg.Histogram("dvp_step_seconds", "site", o.site, "step", step).Record(d)
	}
}

// observeTxn records one transaction decision: the outcome counter and
// the latency histogram partitioned by label and outcome. The
// histogram handle is cached per (label, outcome) — the registry
// lookup's variadic labels would otherwise allocate on every commit.
func (o *siteObs) observeTxn(label string, status txn.Status, lat time.Duration) {
	if c := o.outcomes[status]; c != nil {
		c.Inc()
	}
	if o.reg == nil {
		return
	}
	o.txnLatMu.RLock()
	set := o.txnLat[label]
	o.txnLatMu.RUnlock()
	if set == nil {
		o.txnLatMu.Lock()
		if set = o.txnLat[label]; set == nil {
			set = &txnLatSet{}
			o.txnLat[label] = set
		}
		o.txnLatMu.Unlock()
	}
	idx := int(status)
	if idx < 0 || idx >= len(set.byStatus) {
		o.reg.Histogram("dvp_site_txn_seconds",
			"site", o.site, "label", label, "outcome", status.String()).Record(lat)
		return
	}
	h := set.byStatus[idx].Load()
	if h == nil {
		h = o.reg.Histogram("dvp_site_txn_seconds",
			"site", o.site, "label", label, "outcome", status.String())
		set.byStatus[idx].Store(h)
	}
	h.Record(lat)
}
