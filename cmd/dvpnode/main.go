// Command dvpnode runs one DvP site as a real OS process: the site
// engine from internal/site over TCP (internal/tcpnet), with a
// file-backed stable log, plus a small line-oriented control port for
// clients (see cmd/dvpctl).
//
// A three-site cluster on one machine:
//
//	dvpnode -site 1 -listen :7101 -ctl :8101 -peers 1=:7101,2=:7102,3=:7103 \
//	        -wal /tmp/site1.wal -create flight/A=40
//	dvpnode -site 2 -listen :7102 -ctl :8102 -peers 1=:7101,2=:7102,3=:7103 \
//	        -wal /tmp/site2.wal -create flight/A=30
//	dvpnode -site 3 -listen :7103 -ctl :8103 -peers 1=:7101,2=:7102,3=:7103 \
//	        -wal /tmp/site3.wal -create flight/A=30
//
// then: dvpctl -addr :8101 reserve flight/A 35
//
// -create installs this site's LOCAL share of the item (each node
// declares its own quota; the item's total is their sum). On restart
// with an existing WAL, state recovers from the log and -create is
// skipped for items already present.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ctl"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/site"
	"dvp/internal/store"
	"dvp/internal/tcpnet"
	"dvp/internal/wal"
)

func main() {
	var (
		siteID   = flag.Int("site", 0, "this site's id (1-based, required)")
		listen   = flag.String("listen", "", "peer-protocol listen address (required)")
		ctlAddr  = flag.String("ctl", "", "control-port listen address (required)")
		peersArg = flag.String("peers", "", "comma list id=addr covering every site (required)")
		walPath  = flag.String("wal", "", "stable log file (required)")
		creates  = flag.String("create", "", "comma list item=localshare installed if absent")
		scheme   = flag.String("cc", "conc1", "concurrency control: conc1 or conc2")
		timeout  = flag.Duration("timeout", 250*time.Millisecond, "default transaction timeout")
		sync     = flag.Bool("sync", false, "fsync the WAL on every force-write")
		groupCmt = flag.Bool("group-commit", false, "batch concurrent WAL appends into single force-writes")
		groupMax = flag.Int("group-batch", 0, "max records per group-commit flush (0 = default 128)")
		groupLng = flag.Duration("group-linger", 0, "group-commit linger: wait this long for more committers before flushing")
		stripes  = flag.Int("stripes", 0, "admission stripes sharding the per-item critical section (0 = default 16, at most 64; forced to 1 under conc2)")
		ckptIv   = flag.Duration("checkpoint", 0, "write a checkpoint record on this interval (0 disables)")
		ckptByte = flag.Int64("checkpoint-bytes", 0, "auto-checkpoint once this many WAL payload bytes accumulate since the last checkpoint (0 disables)")
		ckptRecs = flag.Int("checkpoint-records", 0, "auto-checkpoint once this many WAL records accumulate since the last checkpoint (0 disables)")
		recWkrs  = flag.Int("recovery-workers", 0, "parallel WAL-replay workers at startup recovery (<=1 replays serially)")
		metricsL = flag.String("metrics", "", "HTTP listen address serving /metrics, /traces, /flight, /healthz and /debug/pprof (optional)")
		traceCap = flag.Int("trace-buf", 1024, "transaction trace ring capacity")
		flightCp = flag.Int("flight-buf", 1024, "flight recorder capacity (0 disables)")
		rebal    = flag.Bool("rebalance", false, "run the demand-driven rebalancer: gossip per-item demand to peers and ship surplus quota toward observed deficits")
		rebalIv  = flag.Duration("rebalance-interval", 0, "rebalancer tick interval, jittered per tick (0 = default 50ms)")
		rebalMin = flag.Duration("rebalance-cooldown", 0, "minimum gap between transfers of the same item (0 = default 2×interval)")
		rebalAmt = flag.Int64("rebalance-min", 0, "smallest surplus/deficit worth a transfer (0 = default 4)")
		retxIv   = flag.Duration("retransmit", 25*time.Millisecond, "Vm retransmission base interval")
		retxMax  = flag.Duration("retransmit-max", 0, "cap on the adaptive per-peer retransmission backoff (0 = 8× -retransmit)")
		dialBo   = flag.Duration("dial-backoff", 0, "first redial delay after a failed dial toward a peer, doubling with jitter (0 = default 25ms)")
		dialBoMx = flag.Duration("dial-backoff-max", 0, "redial backoff cap (0 = default 2s)")
		downAft  = flag.Int("peer-down-after", 0, "consecutive failures before a peer is marked down and probed half-open (0 = default 3)")
	)
	flag.Parse()
	if *siteID <= 0 || *listen == "" || *ctlAddr == "" || *peersArg == "" || *walPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	peers, addrs, err := parsePeers(*peersArg)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	self := ident.SiteID(*siteID)
	if _, ok := addrs[self]; !ok {
		log.Fatalf("-peers must include this site (%d)", *siteID)
	}

	// Observability: one registry + trace ring + flight recorder for
	// the whole process.
	reg := obs.NewRegistry()
	traces := obs.NewRing(*traceCap)
	var flight *obs.Flight
	if *flightCp > 0 {
		flight = obs.NewFlight(*flightCp)
	}

	logFile, err := wal.OpenFileLog(*walPath, wal.FileLogOptions{Sync: *sync})
	if err != nil {
		log.Fatal(err)
	}
	logFile.Instrument(reg, "site", self.String())
	var siteLog wal.Log = logFile
	if *groupCmt {
		gl := wal.NewGroupLog(logFile, wal.GroupCommitOptions{
			MaxBatch: *groupMax,
			Linger:   *groupLng,
		})
		gl.Instrument(reg, "site", self.String())
		gl.SetFlight(flight, self.String())
		siteLog = gl
	}
	defer siteLog.Close()

	ep, err := tcpnet.New(tcpnet.Config{
		Site: self, Listen: *listen, Peers: addrs,
		DialBackoffMin: *dialBo,
		DialBackoffMax: *dialBoMx,
		DownAfter:      *downAft,
		Metrics:        reg,
		Flight:         flight,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()

	ccPolicy := cc.New(cc.Conc1)
	if strings.EqualFold(*scheme, "conc2") {
		ccPolicy = cc.New(cc.Conc2)
	}

	db := store.New()
	s, err := site.New(site.Config{
		ID: self, Peers: peers,
		Log: siteLog, DB: db,
		Endpoint:               ep,
		CC:                     ccPolicy,
		DefaultTimeout:         *timeout,
		RetransmitEvery:        *retxIv,
		RetransmitMax:          *retxMax,
		AdmissionStripes:       *stripes,
		CheckpointEveryBytes:   *ckptByte,
		CheckpointEveryRecords: *ckptRecs,
		RecoveryWorkers:        *recWkrs,
		Metrics:                reg,
		Trace:                  traces,
		Flight:                 flight,
		Rebalance: site.RebalanceConfig{
			Enabled:     *rebal,
			Interval:    *rebalIv,
			MinTransfer: core.Value(*rebalAmt),
			Cooldown:    *rebalMin,
			Seed:        int64(*siteID),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := s.LastRecovery()
	log.Printf("site %v recovered in %s: checkpoint lsn %d (%d skipped), %d records scanned, %d actions redone, %d vm restored, %d workers",
		self, rec.Elapsed, rec.CheckpointLSN, rec.CheckpointsSkipped,
		rec.RecordsScanned, rec.ActionsRedone, rec.VmRestored, rec.Workers)

	if *creates != "" {
		for _, kv := range strings.Split(*creates, ",") {
			item, share, err := parseCreate(kv)
			if err != nil {
				log.Fatalf("bad -create: %v", err)
			}
			if _, exists := db.Get(item); exists {
				log.Printf("item %s already in recovered state; -create skipped", item)
				continue
			}
			// Unlike the in-process simulation (where the store
			// object survives crashes like disk pages), a real
			// process rebuilds its store from the WAL — so the
			// initial share must itself be a logged action.
			rec := &wal.CommitRec{Actions: []wal.Action{{Item: item, Delta: share}}}
			lsn, err := siteLog.Append(wal.RecCommit, rec.Encode())
			if err != nil {
				log.Fatal(err)
			}
			if _, err := db.ApplyAll(lsn, rec.Actions); err != nil {
				log.Fatal(err)
			}
			log.Printf("created local share %s = %d", item, share)
		}
	}

	s.Start()
	log.Printf("site %v serving peers on %s", self, ep.Addr())

	if *ckptIv > 0 {
		go func() {
			ticker := time.NewTicker(*ckptIv)
			defer ticker.Stop()
			for range ticker.C {
				if err := s.Checkpoint(); err != nil {
					log.Printf("checkpoint: %v", err)
				}
			}
		}()
	}

	ctlSrv := &ctl.Server{Site: s, DB: db, Metrics: reg, Traces: traces, Flight: flight}
	if err := ctlSrv.Listen(*ctlAddr); err != nil {
		log.Fatal(err)
	}
	log.Printf("control port on %s", ctlSrv.Addr())

	if *metricsL != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		})
		mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = traces.DumpJSON(w, queryN(r, 100))
		})
		mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
			if flight == nil {
				http.Error(w, "flight recorder disabled", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = flight.WriteText(w, queryN(r, 200))
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			// Healthy = the site engine is up and serving; a crashed or
			// shut-down site answers 503 so probes can tell the engine
			// state apart from a wedged process.
			if !s.Up() {
				http.Error(w, "site down", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
		// Runtime profiling, same surface net/http/pprof hangs on the
		// default mux: CPU/heap/mutex/block profiles plus goroutine and
		// allocation dumps, but scoped to this explicit mux.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("metrics endpoint on %s", *metricsL)
			if err := http.ListenAndServe(*metricsL, mux); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Printf("shutting down")
		ctlSrv.Close()
		s.Crash()
	case <-s.FailStopped():
		// Exit non-zero. The store here is volatile: the next start
		// replays the log into an empty one, which is all the recovery
		// a fail-stop needs.
		log.Fatal(s.FailStopErr())
	}
}

// queryN reads a positive ?n= query parameter, with a default.
func queryN(r *http.Request, def int) int {
	if v := r.URL.Query().Get("n"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > 0 {
			return p
		}
	}
	return def
}

// parsePeers parses "1=host:port,2=host:port,...".
func parsePeers(arg string) ([]ident.SiteID, map[ident.SiteID]string, error) {
	addrs := make(map[ident.SiteID]string)
	var peers []ident.SiteID
	for _, kv := range strings.Split(arg, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("entry %q is not id=addr", kv)
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil || id <= 0 {
			return nil, nil, fmt.Errorf("bad site id %q", parts[0])
		}
		addrs[ident.SiteID(id)] = parts[1]
		peers = append(peers, ident.SiteID(id))
	}
	return ident.SortSites(peers), addrs, nil
}

// parseCreate parses "item=share".
func parseCreate(kv string) (ident.ItemID, core.Value, error) {
	parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("entry %q is not item=share", kv)
	}
	share, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || share < 0 {
		return "", 0, fmt.Errorf("bad share %q", parts[1])
	}
	return ident.ItemID(parts[0]), core.Value(share), nil
}
