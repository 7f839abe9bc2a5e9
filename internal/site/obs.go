package site

import (
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
	// decision — honored/(honored+declined) is the honor rate; a
	// decline is counted under its reason.
	honored  *metrics.Counter
	declined [len(declineReasons)]*metrics.Counter
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

// siteObs bundles the site's metric handles, every one resolved at New:
// recording never registers a series, so the series set is fixed by the
// site and its peers — not by the items touched or the callers' labels.
// With no registry configured the handles are orphan (working but
// unregistered) counters, so recording sites never branch.
type siteObs struct {
	site   string
	ring   *obs.Ring
	flight *obs.Flight // nil disables flight recording

	retx *metrics.Counter
	// outcomes and txnLat count each transaction decision and time it
	// (dvp_site_txn_total, dvp_site_txn_seconds), indexed by txn.Status
	// and keyed by site and outcome only: a transaction's label goes to
	// its trace and flight events, never to a series.
	outcomes [txn.StatusSiteDown + 1]*metrics.Counter
	txnLat   [txn.StatusSiteDown + 1]*metrics.Histogram
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
}

func newPeerObs(reg *obs.Registry, site, peer string) *peerObs {
	po := &peerObs{
		asksSent:   reg.Counter("dvp_site_quota_asks_total", "site", site, "peer", peer),
		honored:    reg.Counter("dvp_site_requests_honored_total", "site", site, "peer", peer),
		vmCreated:  reg.Counter("dvp_vmsg_created_total", "site", site, "peer", peer),
		vmAccepted: reg.Counter("dvp_vmsg_accepted_total", "site", site, "peer", peer),
		vmDups:     reg.Counter("dvp_vmsg_dup_drops_total", "site", site, "peer", peer),
		sendErrs:   reg.Counter("dvp_site_send_errors_total", "site", site, "peer", peer),
	}
	for r, reason := range declineReasons {
		po.declined[r] = reg.Counter("dvp_site_requests_declined_total", "site", site, "peer", peer, "reason", reason)
	}
	return po
}

// declineReason is why handleRequest declined a peer's request.
type declineReason uint8

const (
	declineLocked      declineReason = iota // the item is locked (§5)
	declineCC                               // TS(t) ≤ TS(d_j) under Conc1 (§6.1)
	declineOutstanding                      // a full read meets an outstanding Vm
	declineNoGrant                          // the grant policy gives nothing
	declineLogError                         // the log refused the create, or the fence's force failed
)

// declineReasons names each declineReason, in its order: the values of
// dvp_site_requests_declined_total's reason label.
var declineReasons = [...]string{"locked", "cc", "outstanding-vm", "no-grant", "log-error"}

func (r declineReason) String() string { return declineReasons[r] }

// initObs resolves the site's metric handles against cfg.Metrics and
// instruments the Vm manager. Called once from New.
func (s *Site) initObs() {
	o := &s.obsm
	reg := s.cfg.Metrics
	o.ring = s.cfg.Trace
	o.flight = s.cfg.Flight
	o.site = s.cfg.ID.String()
	o.retx = reg.Counter("dvp_vmsg_retransmissions_total", "site", o.site)
	o.steps = make(map[string]*metrics.Histogram, 16)
	for _, step := range []string{
		"admit", "cc-check", "lock", "ask", "vm-accept", "wal-flush",
		"apply", "rds-create", "vm-apply",
	} {
		o.steps[step] = reg.Histogram("dvp_step_seconds", "site", o.site, "step", step)
	}
	// Parked foreign credits (the deferVm/ReqTxn gate): sampled at
	// exposition time from the items' state, so crash-clearing needs
	// no gauge bookkeeping.
	reg.GaugeFunc("dvp_rebalance_parked_credits",
		func() float64 { return float64(s.parkedCredits()) }, "site", o.site)
	for st := txn.StatusCommitted; st <= txn.StatusSiteDown; st++ {
		o.outcomes[st] = reg.Counter("dvp_site_txn_total", "site", o.site, "outcome", st.String())
		o.txnLat[st] = reg.Histogram("dvp_site_txn_seconds", "site", o.site, "outcome", st.String())
	}
	o.advertsSent = reg.Counter("dvp_rebalance_adverts_sent_total", "site", o.site)
	o.advertsRecv = reg.Counter("dvp_rebalance_adverts_recv_total", "site", o.site)
	o.rebalTransfers = reg.Counter("dvp_rebalance_transfers_total", "site", o.site)
	o.rebalMoved = reg.Counter("dvp_rebalance_value_moved_total", "site", o.site)
	o.deficitAborts = reg.Counter("dvp_site_deficit_aborts_total", "site", o.site)
	o.ckptTotal = reg.Counter("dvp_checkpoint_total", "site", o.site)
	o.ckptBytes = reg.Counter("dvp_checkpoint_bytes", "site", o.site)
	o.fastCommits = reg.Counter("dvp_fastpath_commits_total", "site", o.site)
	o.fastFallbacks = reg.Counter("dvp_fastpath_fallback_total", "site", o.site)
	o.failStops = make(map[string]*metrics.Counter, 8)
	for _, reason := range []string{
		"commit-force", "commit-apply", "create-force", "create-apply",
		"accept-force", "accept-apply", "checkpoint-force", "clock-force", "endpoint-open",
	} {
		o.failStops[reason] = reg.Counter("dvp_site_failstop_total", "site", o.site, "reason", reason)
	}
	o.recoverLat = reg.Histogram("dvp_recover_seconds", "site", o.site)
	o.recoverRecords = reg.Counter("dvp_recover_records_replayed", "site", o.site)
	o.peers = make(map[ident.SiteID]*peerObs, len(s.cfg.Peers))
	for _, p := range s.peersExceptSelf() {
		o.peers[p] = newPeerObs(reg, o.site, p.String())
	}
	var nilReg *obs.Registry
	o.orphan = newPeerObs(nilReg, "", "")
	s.vm.Instrument(reg, o.site, s.peersExceptSelf())
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
// dvp_step_seconds{step=...}; initObs resolves every step there is.
func (o *siteObs) observeStep(step string, d time.Duration) { o.steps[step].Record(d) }

// observeTxn records one transaction decision: its outcome count and
// its latency.
func (o *siteObs) observeTxn(status txn.Status, lat time.Duration) {
	o.outcomes[status].Inc()
	o.txnLat[status].Record(lat)
}
