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
// declares its own quota; the item's total is their sum), as one logged
// record for every item listed. On restart with an existing WAL, state
// recovers from the log and -create is skipped for items already
// present.
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
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// traceBuf and flightBuf size the process's transaction trace ring and
// flight recorder.
const (
	traceBuf  = 1024
	flightBuf = 1024
)

// options holds the parsed command line.
type options struct {
	site        int
	listen      string
	ctl         string
	peers       string
	wal         string
	create      string
	cc          string
	timeout     time.Duration
	sync        bool
	groupCommit bool
	ckptRecords int
	metrics     string
	rebalance   bool
	retransmit  time.Duration
}

// defineFlags declares every dvpnode flag on fs. main_test.go pins the
// set by name: a new flag has to edit the test.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.site, "site", 0, "this site's id (1-based, required)")
	fs.StringVar(&o.listen, "listen", "", "peer-protocol listen address (required)")
	fs.StringVar(&o.ctl, "ctl", "", "control-port listen address (required)")
	fs.StringVar(&o.peers, "peers", "", "comma list id=addr covering every site (required)")
	fs.StringVar(&o.wal, "wal", "", "stable log file (required)")
	fs.StringVar(&o.create, "create", "", "comma list item=localshare installed if absent")
	fs.StringVar(&o.cc, "cc", "conc1", "concurrency control: conc1 or conc2 (every site must run the same scheme)")
	fs.DurationVar(&o.timeout, "timeout", 250*time.Millisecond, "default transaction timeout")
	fs.BoolVar(&o.sync, "sync", false, "fsync the WAL on every force-write")
	// Every site log is a group log; -group-commit stays declared only
	// because bench/harness/cluster.go passes it, and false is refused.
	fs.BoolVar(&o.groupCommit, "group-commit", true, "kept for old command lines: the WAL always batches concurrent appends into single force-writes, and =false is refused")
	fs.IntVar(&o.ckptRecords, "checkpoint-records", 0, "auto-checkpoint once this many WAL records accumulate since the last checkpoint (0 disables)")
	fs.StringVar(&o.metrics, "metrics", "", "HTTP listen address serving /metrics, /traces, /flight, /healthz and /debug/pprof (optional)")
	fs.BoolVar(&o.rebalance, "rebalance", false, "run the demand-driven rebalancer: gossip per-item demand to peers and ship surplus quota toward observed deficits")
	fs.DurationVar(&o.retransmit, "retransmit", 25*time.Millisecond, fmt.Sprintf("Vm retransmission base interval (backoff toward a silent peer doubles up to %dx)", vmsg.RetransmitCap))
	return o
}

// usageExit reports a bad command line and exits 2.
func usageExit(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(fs.Output(), "dvpnode: "+format+"\n", args...)
	fs.Usage()
	os.Exit(2)
}

func main() {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	o := defineFlags(fs)
	fs.Parse(os.Args[1:])
	if o.site <= 0 || o.listen == "" || o.ctl == "" || o.peers == "" || o.wal == "" {
		usageExit(fs, "-site, -listen, -ctl, -peers and -wal are required")
	}
	if !o.groupCommit {
		usageExit(fs, "-group-commit=false is no longer supported: every site log is a group log")
	}
	peers, addrs, err := parsePeers(o.peers)
	if err != nil {
		usageExit(fs, "bad -peers: %v", err)
	}
	self := ident.SiteID(o.site)
	if _, ok := addrs[self]; !ok {
		usageExit(fs, "-peers must include this site (%d)", o.site)
	}
	scheme, err := parseScheme(o.cc)
	if err != nil {
		usageExit(fs, "bad -cc: %v", err)
	}

	// Observability: one registry + trace ring + flight recorder for
	// the whole process.
	reg := obs.NewRegistry()
	traces := obs.NewRing(traceBuf)
	flight := obs.NewFlight(flightBuf)

	logFile, err := wal.OpenFileLog(o.wal, wal.FileLogOptions{Sync: o.sync})
	if err != nil {
		log.Fatal(err)
	}
	logFile.Instrument(reg, "site", self.String())
	siteLog := wal.NewGroupLog(logFile, wal.GroupCommitOptions{})
	siteLog.Instrument(reg, "site", self.String())
	siteLog.SetFlight(flight, self.String())
	defer siteLog.Close()

	ep, err := tcpnet.New(tcpnet.Config{
		Site: self, Listen: o.listen, Peers: addrs,
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()

	db := store.New()
	s, err := site.New(site.Config{
		ID: self, Peers: peers,
		Log: siteLog, DB: db,
		Endpoint:               ep,
		CC:                     cc.New(scheme),
		DefaultTimeout:         o.timeout,
		RetransmitEvery:        o.retransmit,
		CheckpointEveryRecords: o.ckptRecords,
		Metrics:                reg,
		Trace:                  traces,
		Flight:                 flight,
		Rebalance:              site.RebalanceConfig{Enabled: o.rebalance, Seed: int64(o.site)},
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := s.LastRecovery()
	log.Printf("site %v recovered in %s: checkpoint lsn %d (%d skipped), %d records scanned, %d actions redone, %d vm restored, clock=%d",
		self, rec.Elapsed, rec.CheckpointLSN, rec.CheckpointsSkipped,
		rec.RecordsScanned, rec.ActionsRedone, rec.VmRestored, rec.Clock)

	// Before Start: a Vm's credit arriving first would name the item.
	if o.create != "" {
		if err := place(s, o.create); err != nil {
			log.Fatal(err)
		}
	}
	s.Start()
	log.Printf("site %v serving peers on %s", self, ep.Addr())

	ctlSrv := &ctl.Server{Site: s, DB: db, Metrics: reg, Traces: traces, Flight: flight}
	if err := ctlSrv.Listen(o.ctl); err != nil {
		log.Fatal(err)
	}
	log.Printf("control port on %s", ctlSrv.Addr())

	if o.metrics != "" {
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
			log.Printf("metrics endpoint on %s", o.metrics)
			if err := http.ListenAndServe(o.metrics, mux); err != nil {
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
		// Exit non-zero: the next start recovers from the log, as an
		// in-process restart would.
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

// parseScheme maps -cc onto a concurrency scheme. An unknown name is
// an error, not Conc1: §6.2's argument needs every site on the same
// scheme, so a typo must not start a Conc1 site beside Conc2 peers.
func parseScheme(name string) (cc.Scheme, error) {
	switch strings.ToLower(name) {
	case "conc1":
		return cc.Conc1, nil
	case "conc2":
		return cc.Conc2, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want conc1 or conc2)", name)
}

// parsePeers parses "1=host:port,2=host:port,..."; a site id may
// appear once.
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
		if _, dup := addrs[ident.SiteID(id)]; dup {
			return nil, nil, fmt.Errorf("site %d listed twice", id)
		}
		addrs[ident.SiteID(id)] = parts[1]
		peers = append(peers, ident.SiteID(id))
	}
	return ident.SortSites(peers), addrs, nil
}

// place logs this site's initial shares from a -create spec
// (item=share,...) as one placement record (site.Place): on a restart,
// the items recovered from the log are skipped.
func place(s *site.Site, spec string) error {
	var shares []wal.Action
	for _, kv := range strings.Split(spec, ",") {
		item, share, err := parseCreate(kv)
		if err != nil {
			return fmt.Errorf("bad -create: %w", err)
		}
		shares = append(shares, wal.Action{Item: item, Delta: share})
	}
	placed, skipped, err := s.Place(shares)
	if err != nil {
		return err
	}
	for _, a := range placed {
		log.Printf("created local share %s = %d", a.Item, a.Delta)
	}
	for _, item := range skipped {
		log.Printf("item %s already in recovered state or listed twice; -create skipped", item)
	}
	return nil
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
