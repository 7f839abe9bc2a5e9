package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fixed sizes of one run. The command line cannot change them: two
// results are comparable only if they were measured the same way.
const (
	// WarmupOps is the fixed-count warm-up that ends every set-up.
	WarmupOps = 2000
	// Setups is how many times a run sets the cluster up from nothing;
	// setup_s is their median and the last one carries the window.
	Setups = 3
	// TracedOps is the length of the serial traced run.
	TracedOps = 2000
	// quiesceTimeout bounds the wait for dvp_vmsg_pending = 0.
	quiesceTimeout = 5 * time.Second
)

// Options are what one invocation fixes for every workload it runs.
type Options struct {
	// NodeBin is the dvpnode binary under test.
	NodeBin string
	// WorkDir receives one scratch directory per workload run.
	WorkDir string
	// LogDir, when set, keeps each node's stderr (and the traced run's
	// spans) there for post-mortem; otherwise they go with the scratch
	// directory unless the run fails.
	LogDir string
	Seed   int64
	// Seconds is the measured window; counted phases scale with it.
	Seconds int
	// Trace adds the in-process traced run and the layer probes.
	Trace bool
	// Setups, WarmupOps and TracedOps default to the constants of the
	// same names; only the smoke test shrinks them.
	Setups, WarmupOps, TracedOps int
	// Logf reports progress (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// opRec is one command sent, as the load generator saw it.
type opRec struct {
	cmd      Cmd
	sent     time.Time
	acked    time.Time
	ok       bool
	serverNs int64
	value    int64
	// final marks the last send of a generated command: the OK one, or
	// the one after which the generator gave up resubmitting.
	final bool
}

// maxResubmits is how often the generator resubmits an aborted command
// before it counts the command as failed and moves on. It only has to
// outlast the longest lock hold: a writer that meets a slow full READ
// (5 ms and more at p99) is answered ABORT every ~100 µs until the read
// lets go.
const maxResubmits = 2000

// delta is the op's effect on its item's system-wide total.
func (o opRec) delta() int64 {
	switch {
	case !o.ok:
		return 0
	case o.cmd.Verb == Reserve:
		return -o.cmd.Amount
	case o.cmd.Verb == Cancel:
		return o.cmd.Amount
	}
	return 0
}

// session is the load generator's state over one cluster's life: its
// connections and the ledger of every acknowledged change, which the
// conservation check needs from the first command on.
type session struct {
	w       Workload
	cluster *Cluster
	load    [Conns]*ctlConn
	admin   [Sites]*ctlConn
	ledger  [Items]int64
}

func (s *session) close() {
	for _, c := range s.load {
		if c != nil {
			c.Close()
		}
	}
	for _, c := range s.admin {
		if c != nil {
			c.Close()
		}
	}
	if s.cluster != nil {
		s.cluster.Kill()
	}
}

// drive runs one connection: commands from gen until stop says so. An
// aborted command is resubmitted as it is (§5: "aborted transactions
// are simply resubmitted") — each send is its own opRec, timed on its
// own — so every generated command commits exactly once and a counted
// phase leaves a log whose length does not depend on the abort rate.
// An I/O error ends the connection's run and is returned; the ops so
// far (the failed one included, as not ok) are kept.
func drive(conn *ctlConn, gen *Gen, stop func(generated int) bool) ([]opRec, error) {
	var ops []opRec
	for n := 0; !stop(n); n++ {
		cmd := gen.Next()
		for try := 0; ; try++ {
			rec := opRec{cmd: cmd, sent: time.Now()}
			line, err := conn.do(cmd.Line())
			rec.acked = time.Now()
			if err != nil {
				rec.final = true
				return append(ops, rec), fmt.Errorf("%s: %w", strings.TrimSpace(cmd.Line()), err)
			}
			r := parseReply(line)
			rec.ok, rec.serverNs, rec.value = r.ok, r.serverNs, r.value
			rec.final = r.ok || try == maxResubmits || !strings.HasPrefix(line, "ABORT")
			ops = append(ops, rec)
			if rec.final {
				break
			}
		}
	}
	return ops, nil
}

// runPhase drives both connections, each from its own generator, until
// stop says so, and returns their op logs.
func (s *session) runPhase(gens [Conns]*Gen, stop func(generated int) bool) ([Conns][]opRec, error) {
	var (
		logs [Conns][]opRec
		errs [Conns]error
		wg   sync.WaitGroup
	)
	for c := 0; c < Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c], errs[c] = drive(s.load[c], gens[c], stop)
		}(c)
	}
	wg.Wait()
	for _, l := range logs {
		for _, o := range l {
			s.ledger[o.cmd.Item] += o.delta()
		}
	}
	return logs, errors.Join(errs[:]...)
}

// gens seeds one generator per connection for phase ph. stream tells
// the warm-up's generators (1) from the window's (0).
func (s *session) gens(seed int64, ph, stream int) [Conns]*Gen {
	var g [Conns]*Gen
	for c := range g {
		g[c] = s.w.NewGen(seed, ph, c, stream)
	}
	return g
}

// setUp brings a cluster from nothing to warm: spawn, PING, all items
// visible with their shares, shortfall items primed, warm-up done.
func setUp(ctx context.Context, o Options, w Workload, dir string) (s *session, err error) {
	cl, err := StartCluster(ctx, o.NodeBin, dir, w)
	if err != nil {
		return nil, err
	}
	s = &session{w: w, cluster: cl}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	for i := range s.admin {
		if s.admin[i], err = dialCtl(cl.CtlAddr(i + 1)); err != nil {
			return s, err
		}
	}
	for i := range s.load {
		if s.load[i], err = dialCtl(cl.CtlAddr(1)); err != nil {
			return s, err
		}
	}
	for site := 1; site <= Sites; site++ {
		for k := 0; k < Items; k++ {
			q, err := s.admin[site-1].quota(k)
			if err != nil {
				return s, err
			}
			if want := w.share(k)[site-1]; q != want {
				return s, fmt.Errorf("site %d it/%d: quota %d after start, want %d", site, k, q, want)
			}
		}
	}
	for _, cmd := range w.prime() {
		line, err := s.load[0].do(cmd.Line())
		if err == nil && !parseReply(line).ok {
			err = fmt.Errorf("%s", line)
		}
		if err != nil {
			return s, fmt.Errorf("prime %s: %w", strings.TrimSpace(cmd.Line()), err)
		}
		s.ledger[cmd.Item] -= cmd.Amount
	}
	// Warm-up follows the first phase's pattern.
	warm := o.WarmupOps / Conns
	if _, err := s.runPhase(s.gens(o.Seed, 0, 1), func(generated int) bool { return generated >= warm }); err != nil {
		return s, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// window runs the workload's phases back to back and returns every op
// sent and the time the phases took.
func (s *session) window(ctx context.Context, o Options) (ops []opRec, elapsed time.Duration, err error) {
	start := time.Now()
	for ph, p := range s.w.phases {
		var done func(generated int) bool
		if p.opsPerSecond == 0 {
			deadline := time.Now().Add(time.Duration(o.Seconds) * time.Second)
			done = func(int) bool { return !time.Now().Before(deadline) }
		} else {
			n := p.phaseOps(o.Seconds)
			done = func(generated int) bool { return generated >= n }
		}
		logs, perr := s.runPhase(s.gens(o.Seed, ph, 0), func(generated int) bool { return ctx.Err() != nil || done(generated) })
		for _, l := range logs {
			ops = append(ops, l...)
		}
		if perr == nil {
			perr = ctx.Err() // interrupted: what was measured is not a window
		}
		if perr != nil {
			return ops, time.Since(start), perr
		}
	}
	return ops, time.Since(start), nil
}

// nodeState is one sampling of everything the nodes expose.
type nodeState struct {
	metrics [Sites]Snapshot
	proc    [Sites]procStat
	wal     int64
}

func (s *session) sampleProc(st *nodeState) error {
	for i := range st.proc {
		var err error
		if st.proc[i], err = s.cluster.Proc(i + 1); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) sampleMetrics(st *nodeState) error {
	for i := range st.metrics {
		var err error
		if st.metrics[i], err = s.admin[i].metrics(); err != nil {
			return fmt.Errorf("site %d METRICS: %w", i+1, err)
		}
	}
	var err error
	st.wal, err = s.cluster.WalBytes()
	return err
}

// quiesce waits until no site has a Vm pending and returns how many
// were still pending when it gave up (0 on success).
func (s *session) quiesce(ctx context.Context) (float64, error) {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		var pending float64
		for i := range s.admin {
			snap, err := s.admin[i].metrics()
			if err != nil {
				return 0, err
			}
			pending += snap.Sum("dvp_vmsg_pending")
		}
		if pending == 0 || time.Now().After(deadline) {
			return pending, nil
		}
		select {
		case <-ctx.Done():
			return pending, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Host adjustment. The development host's speed swings by a factor of
// two over minutes (neighbours on the same machine), and it swings
// together for everything that enters the kernel: the time site 1's
// FileLog takes to append one batch — a write, plus an fsync under
// -sync — moves with it, and commit throughput is inversely
// proportional to it to within a few per cent. That time is measured by
// the node over exactly the ops of the window, costs nothing, and no
// change to the commit path can move it (only a change to how the log
// file itself is written). The end-to-end time metrics are therefore
// expressed at a nominal host speed: measured × nominal ÷ the mean
// append time the node saw in the same interval. The interval's raw
// index is reported as host.log_append_us, so the raw value of any
// adjusted metric is the printed one × host.log_append_us ÷ nominal.
const (
	nominalAppendSyncUs   = 200 // write + fsync on a host where a force costs 200 µs
	nominalAppendNoSyncUs = 2   // page-cache write on the same host
)

// nominalAppendUs is the log-append time the workload's times are
// expressed at.
func (w Workload) nominalAppendUs() float64 {
	if w.Sync {
		return nominalAppendSyncUs
	}
	return nominalAppendNoSyncUs
}

// logAppendUs is site 1's mean FileLog append time between two
// snapshots, in µs (0 if it appended nothing).
func logAppendUs(before, after Snapshot) float64 {
	n := Delta(before, after, "dvp_wal_append_seconds_count")
	if n == 0 {
		return 0
	}
	return 1e6 * Delta(before, after, "dvp_wal_append_seconds_sum") / n
}

// RunWorkload measures one workload: Setups set-ups, the window on the
// last, the correctness gate, and — with o.Trace — the traced run and
// the probes. A gate violation comes back in the result (Correct
// false, Violations filled); an error means the run could not be
// carried out at all.
func RunWorkload(ctx context.Context, o Options, w Workload) (res *WorkloadResult, err error) {
	if o.Setups == 0 {
		o.Setups = Setups
	}
	if o.WarmupOps == 0 {
		o.WarmupOps = WarmupOps
	}
	if o.TracedOps == 0 {
		o.TracedOps = TracedOps
	}
	dir, err := os.MkdirTemp(o.WorkDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		// WAL files always go; node logs stay when asked for or when the
		// run went wrong, so there is something to read afterwards.
		keep := o.LogDir != "" || err != nil || (res != nil && !res.Correct)
		if kerr := finishDir(dir, o.LogDir, w.Name, keep); kerr != nil && err == nil {
			err = kerr
		}
	}()

	res = newResult(w, o)
	var setups, setupsRaw []float64
	var s *session
	for i := 0; i < o.Setups; i++ {
		if s != nil {
			s.close()
			if err := removeWALs(dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s, err = setUp(ctx, o, w, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		raw := time.Since(t0).Seconds()
		// The set-up's own host index: everything site 1 has appended
		// since it was spawned (shares, priming, warm-up).
		snap, err := s.admin[0].metrics()
		if err != nil {
			s.close()
			return nil, err
		}
		setupsRaw = append(setupsRaw, raw)
		setups = append(setups, raw*w.nominalAppendUs()/logAppendUs(Snapshot{}, snap))
	}
	defer s.close()
	res.put(res.EndToEnd, "setup_s", Median(setups), "s", len(setups))
	res.Notes = append(res.Notes, fmt.Sprintf("raw (not host-adjusted): setup_s=%.4f", Median(setupsRaw)))
	o.logf("%s: set up %d× (median %.2fs), measuring", w.Name, o.Setups, Median(setupsRaw))

	var before, after nodeState
	if err := errors.Join(s.sampleMetrics(&before), s.sampleProc(&before)); err != nil {
		return nil, err
	}
	ledgerBefore := s.ledger
	ops, elapsed, werr := s.window(ctx, o)
	if perr := s.sampleProc(&after); perr != nil && werr == nil {
		werr = perr
	}
	if werr != nil {
		return nil, fmt.Errorf("%s: window: %w", w.Name, werr)
	}
	pending, err := s.quiesce(ctx)
	if err != nil {
		return nil, err
	}
	if err := s.sampleMetrics(&after); err != nil {
		return nil, err
	}

	sum := summarize(ops)
	for _, op := range ops {
		if op.final {
			res.Attempted++
			if !op.ok {
				res.Failed++
			}
		}
	}
	if sum.ok == 0 {
		return nil, fmt.Errorf("%s: no op succeeded in the window", w.Name)
	}
	res.endToEnd(w, sum, elapsed, before, after)
	res.counterLayers(sum, before, after, pending)

	res.Violations = append(res.Violations, s.gate(ledgerBefore, ops, pending)...)
	res.Violations = append(res.Violations, res.shapeViolations()...)

	if o.Trace {
		if err := s.liveProbes(res); err != nil {
			return nil, err
		}
	}
	if w.restartsPerSecond > 0 {
		if err := s.restarts(ctx, o, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	s.close()

	if o.Trace {
		if err := recoveryProbe(filepath.Join(dir, "site1.wal"), res); err != nil {
			return nil, err
		}
		if err := tracedRun(ctx, o, w, dir, res); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
		}
		if err := walProbes(dir, res); err != nil {
			return nil, err
		}
		runProbes(res)
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// removeWALs deletes the WAL files of a finished set-up so the next
// one starts from nothing.
func removeWALs(dir string) error {
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return err
	}
	for _, p := range wals {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// finishDir removes the scratch directory; with keep it first moves
// the node logs (and spans) into logDir/<workload>/, or leaves them in
// place when there is no logDir.
func finishDir(dir, logDir, workload string, keep bool) error {
	if err := removeWALs(dir); err != nil {
		return err
	}
	if !keep {
		return os.RemoveAll(dir)
	}
	if logDir == "" {
		fmt.Fprintf(os.Stderr, "dvpbench: node logs kept in %s\n", dir)
		return nil
	}
	dst := filepath.Join(logDir, workload)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Rename(filepath.Join(dir, f.Name()), filepath.Join(dst, f.Name())); err != nil {
			return err
		}
	}
	return os.Remove(dir)
}

// summary is the window's ops reduced to what the metrics need.
type summary struct {
	sent       int       // commands sent, resubmissions included
	ok         int       // OK replies
	commitMs   []float64 // client latency of OK RESERVE/CANCEL, sorted
	readMs     []float64 // client latency of OK READ, sorted
	commitSelf float64   // Σ (client − server latency) over OK commits, µs
}

func summarize(ops []opRec) summary {
	s := summary{sent: len(ops)}
	for _, o := range ops {
		if !o.ok {
			continue
		}
		s.ok++
		lat := o.acked.Sub(o.sent)
		if o.cmd.Verb == Read {
			s.readMs = append(s.readMs, float64(lat)/1e6)
			continue
		}
		s.commitMs = append(s.commitMs, float64(lat)/1e6)
		s.commitSelf += float64(int64(lat)-o.serverNs) / 1e3
	}
	sort.Float64s(s.commitMs)
	sort.Float64s(s.readMs)
	return s
}

// endToEnd fills the metrics a user of the system would see. Times are
// host-adjusted (see nominalAppendUs); the raw figures go in a note.
func (r *WorkloadResult) endToEnd(w Workload, s summary, elapsed time.Duration, before, after nodeState) {
	ok := float64(s.ok)
	index := logAppendUs(before.metrics[0], after.metrics[0])
	r.put(r.Layers, "host.log_append_us", index, "us", s.ok)
	slow := index / w.nominalAppendUs() // > 1: the host was slower than nominal
	raw := "raw (not host-adjusted):"
	timed := func(name string, v float64, unit string, n int) {
		r.put(r.EndToEnd, name, v/slow, unit, n)
		raw += fmt.Sprintf(" %s=%.4f", name, v)
	}

	r.put(r.EndToEnd, "goodput_ops_s", ok/elapsed.Seconds()*slow, "1/s", s.ok)
	raw += fmt.Sprintf(" goodput_ops_s=%.1f", ok/elapsed.Seconds())
	if n := len(s.commitMs); n > 0 {
		timed("commit_p50_ms", Percentile(s.commitMs, 50), "ms", n)
		timed("commit_p99_ms", Percentile(s.commitMs, 99), "ms", n)
		tail := TailPercentile(n)
		r.Notes = append(r.Notes, fmt.Sprintf("commit tail: raw p%g = %.3f ms is the highest percentile with ≥10 samples beyond it (n=%d)",
			tail, Percentile(s.commitMs, tail), n))
	}
	if n := len(s.readMs); n > 0 {
		timed("read_p50_ms", Percentile(s.readMs, 50), "ms", n)
		timed("read_p99_ms", Percentile(s.readMs, 99), "ms", n)
		tail := TailPercentile(n)
		r.Notes = append(r.Notes, fmt.Sprintf("read tail: raw p%g = %.3f ms (n=%d)", tail, Percentile(s.readMs, tail), n))
	}
	r.put(r.EndToEnd, "fail_share", float64(s.sent-s.ok)/float64(s.sent), "share", s.sent)
	var ticks int64
	for i := range after.proc {
		ticks += after.proc[i].cpuTicks - before.proc[i].cpuTicks
	}
	timed("cpu_us_per_op", float64(ticks)*(1e6/userHz)/ok, "us", s.ok)
	r.put(r.EndToEnd, "wal_bytes_per_op", float64(after.wal-before.wal)/ok, "B", s.ok)
	r.put(r.EndToEnd, "rss_mb", float64(after.proc[0].rssKB)/1024, "MB", 1)
	r.Notes = append(r.Notes, raw)
}

// counterLayers fills the per-layer metrics whose source is a counter:
// METRICS deltas over the window, /proc and file sizes.
func (r *WorkloadResult) counterLayers(s summary, before, after nodeState, pending float64) {
	ok := float64(s.ok)
	all := func(name string, labels ...string) float64 {
		var sum float64
		for i := range after.metrics {
			sum += Delta(before.metrics[i], after.metrics[i], name, labels...)
		}
		return sum
	}
	site1 := func(name string, labels ...string) float64 {
		return Delta(before.metrics[0], after.metrics[0], name, labels...)
	}
	perOp := func(name string, v float64, unit string) { r.put(r.Layers, name, v/ok, unit, s.ok) }
	ratio := func(name string, num, den float64, unit string) {
		if den > 0 {
			r.put(r.Layers, name, num/den, unit, int(den))
		}
	}

	if n := len(s.commitMs); n > 0 {
		r.put(r.Layers, "ctl.self_us_per_op", s.commitSelf/float64(n), "us", n)
	}
	ratio("site.txn_mean_us", 1e6*site1("dvp_site_txn_seconds_sum", `outcome="committed"`),
		site1("dvp_site_txn_seconds_count", `outcome="committed"`), "us")
	fast, slow := site1("dvp_fastpath_commits_total"), site1("dvp_fastpath_fallback_total")
	ratio("site.fastpath_share", fast, fast+slow, "share")
	perOp("site.asks_per_op", site1("dvp_site_quota_asks_total"), "count")
	perOp("site.honored_per_op", all("dvp_site_requests_honored_total"), "count")
	perOp("site.declined_per_op", all("dvp_site_requests_declined_total"), "count")
	attempts := site1("dvp_site_txn_total")
	ratio("site.abort_lock_share", site1("dvp_site_txn_total", `outcome="lock-conflict"`), attempts, "share")
	ratio("site.abort_cc_share", site1("dvp_site_txn_total", `outcome="cc-rejected"`), attempts, "share")
	ratio("site.abort_timeout_share", site1("dvp_site_txn_total", `outcome="timeout"`), attempts, "share")

	forces := all("dvp_wal_fsync_seconds_count")
	perOp("wal.forces_per_op", forces, "count")
	perOp("wal.records_per_op", all("dvp_wal_records_total"), "count")
	perOp("wal.bytes_per_op", float64(after.wal-before.wal), "B")
	ratio("wal.group_batch_mean", all("dvp_wal_group_records_total"), all("dvp_wal_group_flushes_total"), "count")
	ratio("wal.fsync_mean_us", 1e6*all("dvp_wal_fsync_seconds_sum"), forces, "us")

	perOp("tcpnet.msgs_per_op", all("dvp_net_msgs_out_total"), "count")
	perOp("tcpnet.bytes_per_op", all("dvp_net_bytes_out_total"), "B")
	perOp("tcpnet.flushes_per_op", all("dvp_net_flushes_total"), "count")
	r.put(r.Layers, "tcpnet.dropped_frames", all("dvp_net_dropped_frames_total"), "count", s.ok)

	perOp("vmsg.created_per_op", all("dvp_vmsg_created_total"), "count")
	perOp("vmsg.accepted_per_op", all("dvp_vmsg_accepted_total"), "count")
	perOp("vmsg.retransmissions_per_op", all("dvp_vmsg_retransmissions_total"), "count")
	perOp("vmsg.dup_drops_per_op", all("dvp_vmsg_dup_drops_total"), "count")
	ratio("vmsg.ack_rtt_mean_us", 1e6*all("dvp_vmsg_ack_seconds_sum"), all("dvp_vmsg_ack_seconds_count"), "us")
	r.put(r.Layers, "vmsg.pending_at_end", pending, "count", Sites)

	r.put(r.Layers, "obs.metrics_series", float64(after.metrics[0].Series), "count", 1)

	tick := func(i int) float64 { return float64(after.proc[i].cpuTicks-before.proc[i].cpuTicks) * (1e6 / userHz) }
	perOp("proc.cpu_us_per_op.site1", tick(0), "us")
	perOp("proc.cpu_us_per_op.donors", tick(1)+tick(2), "us")
	var ctxsw int64
	for i := range after.proc {
		ctxsw += after.proc[i].volCtxSw - before.proc[i].volCtxSw
	}
	perOp("proc.vol_ctxsw_per_op", float64(ctxsw), "count")
}

// shapeViolations checks that the workload exercised (or bypassed) the
// layers it exists to exercise (or bypass): a result from a run where
// a "local" op went to the network is not a local_durable result.
func (r *WorkloadResult) shapeViolations() []string {
	var v []string
	within := func(name string, want, slack float64) {
		if got := r.Layers[name].Value; math.Abs(got-want) > slack {
			v = append(v, fmt.Sprintf("%s: %s = %g, the workload requires %g ± %g", r.Workload, name, got, want, slack))
		}
	}
	switch r.Workload {
	case "local_durable", "local_cpu", "hot_item_durable":
		within("tcpnet.msgs_per_op", 0, 0)
		within("vmsg.created_per_op", 0, 0)
	case "shortfall_durable":
		// Not exact: the retransmission sweep re-sends Vm that are merely
		// young, and a duplicate or a Conc1 rejection now and then leaves
		// site 1 a unit of surplus that the next op on the item spends
		// locally.
		within("site.asks_per_op", 2, shortfallSlack)
		within("site.fastpath_share", 0, shortfallSlack)
	}
	return v
}

// shortfallSlack is how far shortfall_durable may stray from "every op
// is short by exactly 1 and asks both peers".
const shortfallSlack = 0.05

// gate is the conservation and read-consistency check. Per item, the
// three sites' quotas must add up to the initial total changed by
// exactly the acknowledged RESERVEs and CANCELs; every READ must have
// returned a total the acknowledged history allows.
func (s *session) gate(ledgerBefore [Items]int64, ops []opRec, pending float64) []string {
	var v []string
	if pending != 0 {
		v = append(v, fmt.Sprintf("%s: dvp_vmsg_pending still %g after %s", s.w.Name, pending, quiesceTimeout))
	}
	for k := 0; k < Items; k++ {
		var sum int64
		for site := 1; site <= Sites; site++ {
			q, err := s.admin[site-1].quota(k)
			if err != nil {
				return append(v, fmt.Sprintf("%s: %v", s.w.Name, err))
			}
			sum += q
		}
		if want := s.w.Total(k) + s.ledger[k]; sum != want {
			v = append(v, fmt.Sprintf("%s: it/%d: quotas sum to %d, acknowledged history gives %d", s.w.Name, k, sum, want))
		}
	}

	// Commits by item, for the READ check: a read sent at s and
	// answered at r must see every commit acknowledged before s, may
	// see any commit sent before r, and nothing else.
	var commits [Items][]opRec
	for _, o := range ops {
		if o.cmd.Verb != Read && o.ok {
			commits[o.cmd.Item] = append(commits[o.cmd.Item], o)
		}
	}
	for _, o := range ops {
		if o.cmd.Verb != Read || !o.ok {
			continue
		}
		k := o.cmd.Item
		lo := s.w.Total(k) + ledgerBefore[k]
		hi := lo
		for _, c := range commits[k] {
			d := c.delta()
			switch {
			case c.acked.Before(o.sent):
				lo, hi = lo+d, hi+d
			case c.sent.Before(o.acked) && d < 0:
				lo += d
			case c.sent.Before(o.acked):
				hi += d
			}
		}
		if o.value < lo || o.value > hi {
			v = append(v, fmt.Sprintf("%s: READ it/%d returned %d, acknowledged history allows [%d, %d]", s.w.Name, k, o.value, lo, hi))
			if len(v) > 20 {
				break
			}
		}
	}
	return v
}

// liveProbes measures what needs the idle multi-process cluster: the
// control port's bare round trip and the cost of one METRICS scrape.
func (s *session) liveProbes(r *WorkloadResult) error {
	const pings = 200
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t := time.Now()
		if _, err := s.load[0].do("PING\n"); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t))/1e3)
	}
	r.put(r.Layers, "ctl.ping_rtt_us", Median(rtts), "us", pings)

	const scrapes = 5
	ms := make([]float64, 0, scrapes)
	for i := 0; i < scrapes; i++ {
		t := time.Now()
		if _, err := s.admin[0].metrics(); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	r.put(r.Layers, "obs.metrics_scrape_ms", Median(ms), "ms", scrapes)
	return nil
}

// restarts is crash_restart's second half: record every quota, then
// SIGKILL and respawn site 1 on its log and check nothing moved.
func (s *session) restarts(ctx context.Context, o Options, r *WorkloadResult) error {
	n := int(math.Round(s.w.restartsPerSecond * float64(o.Seconds)))
	if n < 1 {
		n = 1
	}
	var want [Items]int64
	for k := range want {
		q, err := s.admin[0].quota(k)
		if err != nil {
			return err
		}
		want[k] = q
	}
	for _, c := range s.load {
		c.Close()
	}
	s.load = [Conns]*ctlConn{}
	var restartMs, scanMs, scanned []float64
	for i := 0; i < n; i++ {
		s.admin[0].Close()
		s.admin[0] = nil
		d, err := s.cluster.Restart(ctx, 1)
		if err != nil {
			return err
		}
		restartMs = append(restartMs, float64(d)/1e6)
		if s.admin[0], err = dialCtl(s.cluster.CtlAddr(1)); err != nil {
			return err
		}
		for k := range want {
			q, err := s.admin[0].quota(k)
			if err != nil {
				return err
			}
			if q != want[k] {
				r.Violations = append(r.Violations, fmt.Sprintf("%s: restart %d: it/%d quota %d, was %d before the crash", s.w.Name, i+1, k, q, want[k]))
			}
		}
		rec, err := s.admin[0].do("RECOVERY\n")
		if err != nil {
			return err
		}
		scanned = append(scanned, replyField(rec, "records_scanned="))
		scanMs = append(scanMs, replyField(rec, "elapsed_us=")/1e3)
	}
	sort.Float64s(restartMs)
	r.put(r.EndToEnd, "restart_p50_ms", Median(restartMs), "ms", n)
	r.Notes = append(r.Notes, fmt.Sprintf("restart: min %.1f ms, max %.1f ms over %d restarts", restartMs[0], restartMs[n-1], n))
	r.put(r.Layers, "recovery.records_scanned", Median(scanned), "count", n)
	r.put(r.Layers, "recovery.scan_ms", Median(scanMs), "ms", n)
	r.put(r.Layers, "recovery.process_start_ms", Median(restartMs)-Median(scanMs), "ms", n)
	return nil
}

// replyField extracts the number after key in a "k=v k=v" reply line
// (0 if absent).
func replyField(line, key string) float64 {
	for _, tok := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(tok, key); ok {
			var f float64
			fmt.Sscanf(v, "%g", &f)
			return f
		}
	}
	return 0
}
