package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	"dvp/internal/wire"
)

const ackKind = uint8(wire.KVmAck)

// tracedWarmup ops run before the traced ops so connections are
// dialled and pools are warm; their spans belong to no op.
const tracedWarmup = 200

// waitLog sits above GroupLog: its Append span is what a committer (or
// a Vm-accepting handler) waits for — queue, hand-offs and device.
type waitLog struct {
	wal.Log
	rec  *Recorder
	site int
}

func (l *waitLog) Append(kind wal.RecordKind, data []byte) (uint64, error) {
	if l.rec.off.Load() {
		return l.Log.Append(kind, data)
	}
	start := time.Now()
	lsn, err := l.Log.Append(kind, data)
	l.rec.Add(Span{Name: spanAppend, Site: l.site, Start: l.rec.Since(start), End: l.rec.Since(time.Now())})
	return lsn, err
}

// deviceLog sits below GroupLog, around the FileLog: its spans are the
// write plus the force, once per batch. It forwards BatchAppender so
// GroupLog still amortizes one force over a group.
type deviceLog struct {
	*wal.FileLog
	rec  *Recorder
	site int
	caps *captures
}

func (l *deviceLog) Append(kind wal.RecordKind, data []byte) (uint64, error) {
	return l.AppendBatch([]wal.BatchEntry{{Kind: kind, Data: data}})
}

func (l *deviceLog) AppendBatch(entries []wal.BatchEntry) (uint64, error) {
	if l.rec.off.Load() {
		return l.FileLog.AppendBatch(entries)
	}
	l.caps.records(entries)
	start := time.Now()
	lsn, err := l.FileLog.AppendBatch(entries)
	l.rec.Add(Span{Name: spanDevice, Site: l.site, Start: l.rec.Since(start), End: l.rec.Since(time.Now())})
	return lsn, err
}

// tracedEndpoint wraps a site's tcpnet endpoint: a span per Send and a
// span per handler call, keyed so assembly can pair them into transit
// times and hang them on the op whose transaction they name.
type tracedEndpoint struct {
	wire.Endpoint
	rec  *Recorder
	caps *captures
}

func msgIdentity(from, to ident.SiteID, m wire.Msg) (key msgKey, txn uint64, inbound string) {
	key = msgKey{from: int(from), to: int(to), kind: uint8(m.Kind())}
	switch m := m.(type) {
	case *wire.Request:
		key.id, key.item = uint64(m.Txn), string(m.Item)
		return key, uint64(m.Txn), spanInReq
	case *wire.Vm:
		key.id = m.Seq
		return key, uint64(m.ReqTxn), spanInVm
	case *wire.VmBatch:
		if len(m.Vms) > 0 {
			key.id = m.Vms[0].Seq
		}
		return key, 0, spanInOther
	case *wire.VmAck:
		key.id = m.UpTo
		return key, 0, spanInAck
	}
	return key, 0, spanInOther
}

func (e *tracedEndpoint) Send(env *wire.Envelope) error {
	if e.rec.off.Load() {
		return e.Endpoint.Send(env)
	}
	e.caps.envelope(env)
	key, txn, _ := msgIdentity(e.Site(), env.To, env.Msg)
	start := time.Now()
	err := e.Endpoint.Send(env)
	e.rec.Add(Span{Name: spanSend, Site: int(e.Site()), Start: e.rec.Since(start), End: e.rec.Since(time.Now()), txn: txn, key: key})
	return err
}

func (e *tracedEndpoint) SetHandler(h wire.Handler) {
	e.Endpoint.SetHandler(func(env *wire.Envelope) {
		if e.rec.off.Load() {
			h(env)
			return
		}
		key, txn, name := msgIdentity(env.From, env.To, env.Msg)
		start := time.Now()
		h(env)
		e.rec.Add(Span{Name: name, Site: int(e.Site()), Start: e.rec.Since(start), End: e.rec.Since(time.Now()), txn: txn, key: key})
	})
}

// captures keeps the latest envelope and the latest log record of each
// kind the workload really produced (the first ones are set-up's), so
// the probes can price exactly those shapes.
type captures struct {
	mu   sync.Mutex
	envs map[wire.Kind]*wire.Envelope
	recs map[wal.RecordKind][]byte
}

func newCaptures() *captures {
	return &captures{envs: make(map[wire.Kind]*wire.Envelope), recs: make(map[wal.RecordKind][]byte)}
}

func (c *captures) envelope(env *wire.Envelope) {
	cp := *env
	c.mu.Lock()
	c.envs[env.Msg.Kind()] = &cp
	c.mu.Unlock()
}

func (c *captures) records(entries []wal.BatchEntry) {
	c.mu.Lock()
	for _, e := range entries {
		c.recs[e.Kind] = append(c.recs[e.Kind][:0], e.Data...)
	}
	c.mu.Unlock()
}

// inproc is the three-site topology inside this process, wired the way
// cmd/dvpnode/main.go wires one node: FileLog → GroupLog → site.New
// over tcpnet on loopback → ctl.Server.
type inproc struct {
	sites [Sites]*site.Site
	ctls  [Sites]*ctl.Server
	logs  [Sites]wal.Log
	eps   [Sites]*tcpnet.Endpoint
}

func (p *inproc) close() {
	for i := range p.sites {
		if p.ctls[i] != nil {
			p.ctls[i].Close()
		}
		if p.sites[i] != nil {
			p.sites[i].Crash()
		}
		if p.eps[i] != nil {
			p.eps[i].Close()
		}
		if p.logs[i] != nil {
			p.logs[i].Close()
		}
	}
}

// startInproc builds the topology for workload w with WALs in dir, the
// span decorators at the two seams.
func startInproc(w Workload, dir string, rec *Recorder, caps *captures) (*inproc, error) {
	p := &inproc{}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	regs := [Sites]*obs.Registry{}
	peers := make([]ident.SiteID, Sites)
	addrs := make(map[ident.SiteID]string, Sites)
	for i := 0; i < Sites; i++ {
		self := ident.SiteID(i + 1)
		peers[i] = self
		regs[i] = obs.NewRegistry()
		ep, err := tcpnet.New(tcpnet.Config{Site: self, Listen: "127.0.0.1:0", Metrics: regs[i]})
		if err != nil {
			return nil, err
		}
		p.eps[i] = ep
		addrs[self] = ep.Addr()
	}
	for i := 0; i < Sites; i++ {
		self := ident.SiteID(i + 1)
		p.eps[i].SetPeers(addrs)
		reg := regs[i]
		flight := obs.NewFlight(1024)

		fileLog, err := wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("traced%d.wal", i+1)), wal.FileLogOptions{Sync: w.Sync})
		if err != nil {
			return nil, err
		}
		fileLog.Instrument(reg, "site", self.String())
		group := wal.NewGroupLog(&deviceLog{FileLog: fileLog, rec: rec, site: i + 1, caps: caps}, wal.GroupCommitOptions{})
		group.Instrument(reg, "site", self.String())
		group.SetFlight(flight, self.String())
		siteLog := &waitLog{Log: group, rec: rec, site: i + 1}
		p.logs[i] = siteLog
		ep := &tracedEndpoint{Endpoint: p.eps[i], rec: rec, caps: caps}
		db := store.New()
		s, err := site.New(site.Config{
			ID: self, Peers: peers, Log: siteLog, DB: db, Endpoint: ep,
			CC:              cc.New(cc.Conc1),
			DefaultTimeout:  250 * time.Millisecond,
			RetransmitEvery: 25 * time.Millisecond,
			Metrics:         reg,
			Trace:           obs.NewRing(1024),
			Flight:          flight,
			Rebalance:       site.RebalanceConfig{Seed: int64(i + 1)},
		})
		if err != nil {
			return nil, err
		}
		p.sites[i] = s
		// The initial share is a logged action, as in dvpnode.
		for k := 0; k < Items; k++ {
			cr := &wal.CommitRec{Actions: []wal.Action{{Item: ident.ItemID(fmt.Sprintf("it/%d", k)), Delta: core.Value(w.share(k)[i])}}}
			lsn, err := siteLog.Append(wal.RecCommit, cr.Encode())
			if err != nil {
				return nil, err
			}
			if _, err := db.ApplyAll(lsn, cr.Actions); err != nil {
				return nil, err
			}
		}
		s.Start()
		p.ctls[i] = &ctl.Server{Site: s, DB: db, Metrics: reg}
		if err := p.ctls[i].Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	ok = true
	return p, nil
}

// tracedBlock is how many consecutive ops run with the decorators on
// before as many run with them off.
const tracedBlock = 100

// serialRun drives the workload's serial stream through one connection
// to site 1: a warm-up, then blocks of ops alternately traced and not.
// It returns n traced ops as the client saw them, their commands, and
// the latencies (ns) of the n untraced ops run in between.
func serialRun(ctx context.Context, p *inproc, w Workload, seed int64, n int, rec *Recorder) (ops []TracedOp, cmds []Cmd, plainNs []float64, err error) {
	conn, err := dialCtl(p.ctls[0].Addr())
	if err != nil {
		return nil, nil, nil, err
	}
	defer conn.Close()
	for _, cmd := range w.prime() {
		if line, err := conn.do(cmd.Line()); err != nil || !parseReply(line).ok {
			return nil, nil, nil, fmt.Errorf("prime %s: %q %v", strings.TrimSpace(cmd.Line()), line, err)
		}
	}
	gen := w.newSerialGen(seed)
	for i := -tracedWarmup; i < 2*n; i++ {
		if ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
		traced := i < 0 || (i/tracedBlock)%2 == 0
		rec.off.Store(!traced)
		cmd := gen.Next()
		start := time.Now()
		line, err := conn.do(cmd.Line())
		end := time.Now()
		if err != nil {
			return nil, nil, nil, err
		}
		r := parseReply(line)
		switch {
		case i < 0 || !r.ok:
			// a serial stream has no contention; a rare abort is simply not decomposed
		case traced:
			ops = append(ops, TracedOp{Start: rec.Since(start), End: rec.Since(end), ServerNs: r.serverNs, Txn: r.txn})
			cmds = append(cmds, cmd)
		default:
			plainNs = append(plainNs, float64(end.Sub(start)))
		}
	}
	return ops, cmds, plainNs, nil
}

// tracedRun produces the T-sourced layer metrics: the serial run through
// the in-process topology, then the per-op self-time attribution.
func tracedRun(ctx context.Context, o Options, w Workload, dir string, res *WorkloadResult) error {
	rec, caps := NewRecorder(o.TracedOps*32), newCaptures()
	topo, err := startInproc(w, dir, rec, caps)
	if err != nil {
		return err
	}
	ops, cmds, plainNs, err := serialRun(ctx, topo, w, o.Seed, o.TracedOps, rec)
	topo.close()
	if rerr := removeWALs(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	if len(ops) == 0 || len(plainNs) == 0 {
		return fmt.Errorf("no op of the serial run succeeded")
	}
	res.captured = caps

	// Tracing overhead: traced against untraced blocks of the same run,
	// by median so that one stalled fsync does not decide the sign.
	tracedNs := make([]float64, len(ops))
	for i, op := range ops {
		tracedNs[i] = float64(op.End - op.Start)
	}
	res.put(res.Layers, "trace.overhead_share", Median(tracedNs)/Median(plainNs)-1, "share", len(ops))

	// READ replies print no latency: size their site.run by the ctl
	// cost the commits of the same run show (client − server latency).
	var ctlSelf, commits int64
	for _, op := range ops {
		if op.ServerNs > 0 {
			ctlSelf += op.End - op.Start - op.ServerNs
			commits++
		}
	}
	if commits > 0 {
		ctlSelf /= commits
	}
	for i := range ops {
		if ops[i].ServerNs == 0 {
			ops[i].ServerNs = max(ops[i].End-ops[i].Start-ctlSelf, 0)
		}
	}

	spans, acks := Assemble(ops, rec.Spans())
	byOp := make([][]Span, len(ops))
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	self := make(map[string]float64)
	var latSum, residual float64
	for i, op := range ops {
		st := SelfTimes(byOp[i])
		var covered int64
		for name, ns := range st {
			self[name] += float64(ns)
			if name != spanOp {
				covered += ns
			}
		}
		lat := op.End - op.Start
		latSum += float64(lat)
		// What the spans cover should be exactly the interval the server
		// says Run took; the rest of the op is the control port's.
		residual += math.Abs(float64(covered - op.ServerNs))
	}
	n := float64(len(ops))
	perOpUs := func(names ...string) float64 {
		var sum float64
		for _, name := range names {
			sum += self[name]
		}
		return sum / n / 1e3
	}
	res.put(res.Layers, "trace.sum_residual_share", residual/latSum, "share", len(ops))
	res.put(res.Layers, "site.run_self_us_per_op", perOpUs(spanRun), "us", len(ops))
	res.put(res.Layers, "wal.append_wait_us_per_op", perOpUs(spanAppend, spanDevice), "us", len(ops))
	res.put(res.Layers, "wal.device_us_per_op", perOpUs(spanDevice), "us", len(ops))
	res.put(res.Layers, "wal.queue_us_per_op", perOpUs(spanAppend), "us", len(ops))

	// Per-message figures: mean length of each kind of span.
	meanOf := func(all []Span, name string) (float64, int) {
		var sum int64
		var cnt int
		for _, s := range all {
			if s.Name == name {
				sum += s.End - s.Start
				cnt++
			}
		}
		if cnt == 0 {
			return 0, 0
		}
		return float64(sum) / float64(cnt), cnt
	}
	putMean := func(metric string, all []Span, name string, div float64, unit string) {
		if v, cnt := meanOf(all, name); cnt > 0 {
			res.put(res.Layers, metric, v/div, unit, cnt)
		}
	}
	putMean("site.inbound_request_us", spans, spanInReq, 1e3, "us")
	putMean("site.inbound_vm_us", spans, spanInVm, 1e3, "us")
	putMean("site.inbound_ack_us", acks, spanInAck, 1e3, "us")
	putMean("tcpnet.send_ns", spans, spanSend, 1, "ns")
	putMean("tcpnet.transit_us", spans, spanTransit, 1e3, "us")

	res.Notes = append(res.Notes, decomposition(self, n, latSum/n/1e3, perOpUs(spanOp)))
	if o.LogDir != "" {
		return writeSpans(filepath.Join(dir, "spans.jsonl"), cmds, append(spans, acks...))
	}
	return nil
}

// decomposition renders the traced run's per-op table: each layer's
// self time and what they add up to beside the measured latency.
func decomposition(self map[string]float64, n, latUs, ctlUs float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "traced serial run, mean self time per op (µs):")
	var sum float64
	for _, name := range []string{spanOp, spanRun, spanAppend, spanDevice, spanSend, spanTransit, spanInReq, spanInVm} {
		us := self[name] / n / 1e3
		sum += us
		fmt.Fprintf(&b, " %s=%.1f", name, us)
	}
	fmt.Fprintf(&b, " | sum=%.1f latency=%.1f", sum, latUs)
	return b.String()
}

// writeSpans dumps the assembled spans, one JSON object per line, the
// op's command on its root span.
func writeSpans(path string, cmds []Cmd, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		line := struct {
			Span
			Cmd string `json:"cmd,omitempty"`
		}{Span: s}
		if s.Name == spanOp {
			line.Cmd = strings.TrimSpace(cmds[s.Op].Line())
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
