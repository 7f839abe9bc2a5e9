// Package tcpnet is the real-network counterpart of internal/simnet:
// the same wire.Endpoint interface over TCP sockets, so the DvP site
// engine runs unchanged as separate OS processes (cmd/dvpnode).
//
// Semantics deliberately match the failure model the protocol assumes:
// Send is best-effort — if the peer is unreachable the message is
// silently dropped (the Vm layer's retransmission owns reliability).
// Connections are dialed lazily, kept for reuse, and torn down on any
// error; frames are length-prefixed envelopes.
//
// Peer failure is first-class: each peer runs a small connection state
// machine (healthy → suspect → down) with exponential backoff + jitter
// between redials, so a dead peer costs one timed probe per backoff
// window — never one dial per frame. A peer recovering from down is
// re-admitted through a half-open probe (one frame, flushed alone)
// before normal batching resumes. When a peer's queue overflows, drops
// are priority-aware: frames that carry or acknowledge value (Vm,
// VmBatch, VmAck) evict queued Requests and adverts rather than being
// lost themselves. Every drop, whatever the path, is counted in
// dvp_net_dropped_frames_total{reason,kind} and surfaced (sampled) in
// the flight recorder.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dvp/internal/ident"
	"dvp/internal/metrics"
	"dvp/internal/obs"
	"dvp/internal/wire"
)

// Config assembles an endpoint.
type Config struct {
	// Site is the local site id.
	Site ident.SiteID
	// Listen is the local listen address (e.g. ":7101").
	Listen string
	// Peers maps every other site to its address.
	Peers map[ident.SiteID]string
	// Metrics, when set, registers per-peer traffic counters
	// (dvp_net_{bytes,msgs}_{in,out}_total, dvp_net_dial_failures_total,
	// dvp_net_flushes_total), the peer state gauge (dvp_net_peer_state:
	// 0 healthy, 1 suspect, 2 down) and the drop counter
	// (dvp_net_dropped_frames_total{reason,kind}) with the registry,
	// labelled site=<self> and peer=<id>.
	Metrics *obs.Registry
	// Flight, when set, records peer lifecycle transitions
	// (net-peer-down, net-peer-up) and sampled frame drops (net-drop)
	// into the flight recorder.
	Flight *obs.Flight
}

// Connection limits. A dial attempt gives up after dialTimeout, and a
// frame longer than maxFrame ends its connection. The first redial
// after a failed dial or write waits dialBackoffMin; consecutive
// failures double the wait up to dialBackoffMax, with ±50% jitter so
// peers redialing a recovered site don't arrive in lockstep. downAfter
// consecutive failures move a peer from suspect to down; a down peer's
// first successful dial runs a half-open probe — one frame, flushed
// alone — and only the probe's clean flush restores it to healthy.
const (
	dialTimeout    = 500 * time.Millisecond
	maxFrame       = 1 << 20
	dialBackoffMin = 25 * time.Millisecond
	dialBackoffMax = 2 * time.Second
	downAfter      = 3
)

// Peer connection states, exposed via the dvp_net_peer_state gauge and
// PeerState.
const (
	peerHealthy int32 = iota
	peerSuspect
	peerDown
)

func stateName(s int32) string {
	switch s {
	case peerSuspect:
		return "suspect"
	case peerDown:
		return "down"
	default:
		return "healthy"
	}
}

// peerCounters holds one remote site's traffic counters. Outbound
// counts cover frames actually written to a socket (loopback sends are
// excluded); inbound counts cover every decoded envelope delivered to
// the handler, attributed to its From site. flushes counts syscall
// batches: msgsOut/flushes is the write-coalescing factor.
type peerCounters struct {
	bytesOut, msgsOut *metrics.Counter
	bytesIn, msgsIn   *metrics.Counter
	dialFailures      *metrics.Counter
	flushes           *metrics.Counter
}

// outFrame pairs a pooled framed envelope with its message kind — the
// kind drives priority shedding and labels the drop counter.
type outFrame struct {
	w    *wire.Writer
	kind wire.Kind
}

// peerWriter owns one peer's outbound connection: Send enqueues a
// framed envelope; the writer goroutine dials lazily (respecting the
// backoff state machine), streams frames through a bufio.Writer, and
// flushes when the queue goes momentarily idle — so a burst of
// envelopes (a request fan-out, a retransmission sweep) leaves in one
// syscall batch, while a lone envelope still flushes immediately.
type peerWriter struct {
	site ident.SiteID
	addr string

	// q is the bounded outbound queue: frames [head:len) await the
	// writer goroutine, which owns popping; ownership of each pooled
	// writer passes to whoever removes it from the queue (pop, evict,
	// shutdown drain).
	mu   sync.Mutex
	q    []outFrame
	head int

	// wake nudges the writer goroutine after an enqueue (1-buffered:
	// one pending wakeup is enough, the drain loop empties the queue).
	wake chan struct{}

	// state is the connection state machine's current state, atomic so
	// the metrics gauge and PeerState read it without the queue lock.
	state atomic.Int32
	// drops counts this writer's dropped frames (flight sampling).
	drops atomic.Uint64

	// Dial/backoff state, owned exclusively by the writer goroutine.
	failures int
	nextDial time.Time
}

func newPeerWriter(site ident.SiteID, addr string) *peerWriter {
	return &peerWriter{site: site, addr: addr, wake: make(chan struct{}, 1)}
}

// count is the queued-frame count; callers hold w.mu.
func (w *peerWriter) count() int { return len(w.q) - w.head }

// push appends under w.mu, compacting the drained prefix instead of
// letting append grow the backing array past the queue bound.
func (w *peerWriter) push(f outFrame) {
	if w.head > 0 && len(w.q) == cap(w.q) {
		n := copy(w.q, w.q[w.head:])
		w.q = w.q[:n]
		w.head = 0
	}
	w.q = append(w.q, f)
}

// evictLowPriority removes and returns the oldest queued low-priority
// frame, making room for a high-priority one; callers hold w.mu.
func (w *peerWriter) evictLowPriority() (outFrame, bool) {
	for i := w.head; i < len(w.q); i++ {
		if !highPriority(w.q[i].kind) {
			f := w.q[i]
			copy(w.q[i:], w.q[i+1:])
			w.q[len(w.q)-1] = outFrame{}
			w.q = w.q[:len(w.q)-1]
			return f, true
		}
	}
	return outFrame{}, false
}

func (w *peerWriter) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// next blocks until a frame is queued or stop closes.
func (w *peerWriter) next(stop <-chan struct{}) (outFrame, bool) {
	for {
		if f, ok := w.tryNext(); ok {
			return f, true
		}
		select {
		case <-stop:
			return outFrame{}, false
		case <-w.wake:
		}
	}
}

// tryNext pops the oldest queued frame without blocking.
func (w *peerWriter) tryNext() (outFrame, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head >= len(w.q) {
		w.q = w.q[:0]
		w.head = 0
		return outFrame{}, false
	}
	f := w.q[w.head]
	w.q[w.head] = outFrame{}
	w.head++
	return f, true
}

// drainInto returns every still-queued frame to the pool at writer
// shutdown: a Close with frames in flight is loss, and counted as such.
func (w *peerWriter) drainInto(e *Endpoint) {
	w.mu.Lock()
	rest := append([]outFrame(nil), w.q[w.head:]...)
	w.q = nil
	w.head = 0
	w.mu.Unlock()
	for _, f := range rest {
		e.dropFrame(w, f.w, f.kind, "closed")
	}
}

// highPriority marks the frames retained in preference under overflow:
// the redistribution traffic itself (Vm, VmBatch) and the cumulative
// acks that retire it (VmAck) — the messages that unblock remote quota
// (§5, §8). Requests, demand adverts and everything else can be shed:
// the protocol regenerates them (requester timeout and re-ask, next
// gossip interval), while a shed Vm or ack costs a full retransmission
// backoff round trip on an already congested link.
func highPriority(k wire.Kind) bool {
	switch k {
	case wire.KVm, wire.KVmBatch, wire.KVmAck:
		return true
	}
	return false
}

// peerWriterQueue bounds the outbound backlog per peer; overflow sheds
// by priority (the model's message loss — retransmission owns
// reliability).
const peerWriterQueue = 1024

// dropSampleEvery paces flight-recorder drop events: the first drop
// per peer writer is always recorded, then one in every
// dropSampleEvery (the running total rides along, so nothing is lost).
const dropSampleEvery = 64

// Endpoint implements wire.Endpoint over TCP.
type Endpoint struct {
	cfg   Config
	peerm map[ident.SiteID]*peerCounters // mutated only under mu (SetPeers)

	mu       sync.Mutex
	handler  wire.Handler
	listener net.Listener
	conns    map[ident.SiteID]net.Conn
	writers  map[ident.SiteID]*peerWriter
	stop     chan struct{} // closed to stop this generation's writers
	accepted map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// New creates and opens an endpoint: it binds the listen address and
// starts accepting peer connections.
func New(cfg Config) (*Endpoint, error) {
	e := &Endpoint{
		cfg:      cfg,
		peerm:    make(map[ident.SiteID]*peerCounters, len(cfg.Peers)),
		conns:    make(map[ident.SiteID]net.Conn),
		accepted: make(map[net.Conn]bool),
	}
	if cfg.Metrics != nil {
		for p := range cfg.Peers {
			e.registerPeer(p)
		}
	}
	if err := e.Open(); err != nil {
		return nil, err
	}
	return e, nil
}

// registerPeer installs one peer's counters and state gauge. Callers
// hold e.mu (or run before the endpoint is shared) and have checked
// that cfg.Metrics is set and the peer is not yet registered.
func (e *Endpoint) registerPeer(p ident.SiteID) {
	self := e.cfg.Site.String()
	pl := p.String()
	e.peerm[p] = &peerCounters{
		bytesOut:     e.cfg.Metrics.Counter("dvp_net_bytes_out_total", "site", self, "peer", pl),
		msgsOut:      e.cfg.Metrics.Counter("dvp_net_msgs_out_total", "site", self, "peer", pl),
		bytesIn:      e.cfg.Metrics.Counter("dvp_net_bytes_in_total", "site", self, "peer", pl),
		msgsIn:       e.cfg.Metrics.Counter("dvp_net_msgs_in_total", "site", self, "peer", pl),
		dialFailures: e.cfg.Metrics.Counter("dvp_net_dial_failures_total", "site", self, "peer", pl),
		flushes:      e.cfg.Metrics.Counter("dvp_net_flushes_total", "site", self, "peer", pl),
	}
	peer := p
	e.cfg.Metrics.GaugeFunc("dvp_net_peer_state",
		func() float64 { return float64(e.peerStateValue(peer)) },
		"site", self, "peer", pl)
}

// Site implements wire.Endpoint.
func (e *Endpoint) Site() ident.SiteID { return e.cfg.Site }

// Addr returns the bound listen address (useful with ":0").
func (e *Endpoint) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.listener == nil {
		return ""
	}
	return e.listener.Addr().String()
}

// SetPeers installs the peer address map after construction, for
// callers that bind every endpoint on an ephemeral port first and only
// then know the full mesh (in-process clusters, tests). Must be called
// before any traffic flows.
func (e *Endpoint) SetPeers(addrs map[ident.SiteID]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Peers = addrs
	if e.cfg.Metrics == nil {
		return
	}
	for p := range addrs {
		if _, ok := e.peerm[p]; ok {
			continue
		}
		e.registerPeer(p)
	}
}

// peerStateValue reads peer's connection state for the gauge: a peer
// with no writer yet has never failed, i.e. healthy.
func (e *Endpoint) peerStateValue(peer ident.SiteID) int32 {
	e.mu.Lock()
	w := e.writers[peer]
	e.mu.Unlock()
	if w == nil {
		return peerHealthy
	}
	return w.state.Load()
}

// PeerState reports the connection state machine's view of peer:
// "healthy", "suspect" or "down".
func (e *Endpoint) PeerState(peer ident.SiteID) string {
	return stateName(e.peerStateValue(peer))
}

// SetHandler implements wire.Endpoint.
func (e *Endpoint) SetHandler(h wire.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Open implements wire.Endpoint: bind and accept. Reopening after
// Close rebinds the same address.
func (e *Endpoint) Open() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.listener != nil && !e.closed {
		return nil
	}
	ln, err := net.Listen("tcp", e.cfg.Listen)
	if err != nil {
		return fmt.Errorf("tcpnet: listen %s: %w", e.cfg.Listen, err)
	}
	// Remember the concrete address so ":0" survives reopen.
	e.cfg.Listen = ln.Addr().String()
	e.listener = ln
	e.closed = false
	e.stop = make(chan struct{})
	e.writers = make(map[ident.SiteID]*peerWriter)
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return nil
}

// Close implements wire.Endpoint: stop listening, drop connections.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	ln := e.listener
	conns := e.conns
	e.conns = make(map[ident.SiteID]net.Conn)
	accepted := e.accepted
	e.accepted = make(map[net.Conn]bool)
	if e.stop != nil {
		close(e.stop) // writers of this generation exit
		e.stop = nil
	}
	e.writers = nil
	e.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Accepted connections must be closed too, or their read loops
	// (blocked in ReadFull) would never exit and Close would hang.
	for c := range accepted {
		c.Close()
	}
	e.wg.Wait()
	e.mu.Lock()
	e.listener = nil
	e.mu.Unlock()
	return nil
}

// Send implements wire.Endpoint: best-effort framed write; the frame
// is handed to the peer's writer goroutine, which coalesces queued
// frames into one buffered write + flush. A full queue sheds by
// priority (loss, per the model) and Send never blocks on the network.
func (e *Endpoint) Send(env *wire.Envelope) error {
	env.From = e.cfg.Site
	if env.To == e.cfg.Site {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return wire.ErrClosed
		}
		// Loopback without touching the network. deliver decodes the
		// frame synchronously and Unmarshal copies everything the
		// handler may retain, so the pooled encode scratch is free for
		// reuse the moment it returns.
		w := wire.GetWriter()
		err := env.MarshalInto(w)
		if err == nil {
			e.deliver(w.Bytes())
		}
		wire.PutWriter(w)
		return err
	}
	addr, ok := e.cfg.Peers[env.To]
	if !ok {
		return fmt.Errorf("%w: %v", wire.ErrUnknownSite, env.To)
	}
	// Encode [u32 length][envelope] straight into a pooled writer; on
	// a successful enqueue its ownership passes to the writer goroutine.
	frame := wire.GetWriter()
	frame.U32(0)
	if err := env.MarshalInto(frame); err != nil {
		wire.PutWriter(frame)
		return err
	}
	frame.PatchU32(0, uint32(frame.Len()-4))

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		wire.PutWriter(frame)
		return wire.ErrClosed
	}
	w, ok := e.writers[env.To]
	if !ok {
		w = newPeerWriter(env.To, addr)
		e.writers[env.To] = w
		stop := e.stop
		e.wg.Add(1)
		go e.writerLoop(w, stop)
	}
	e.mu.Unlock()

	e.enqueue(w, frame, env.Msg.Kind())
	return nil
}

// enqueue hands a framed envelope to the peer's writer, shedding by
// priority on overflow: a high-priority frame (see highPriority)
// evicts the oldest queued low-priority frame rather than being
// dropped itself; a low-priority arrival at a full queue is dropped
// outright. Every drop is counted by reason and kind.
func (e *Endpoint) enqueue(w *peerWriter, frame *wire.Writer, kind wire.Kind) {
	w.mu.Lock()
	if w.count() < peerWriterQueue {
		w.push(outFrame{frame, kind})
		w.mu.Unlock()
		w.signal()
		return
	}
	if !highPriority(kind) {
		w.mu.Unlock()
		e.dropFrame(w, frame, kind, "backlog")
		return
	}
	victim, ok := w.evictLowPriority()
	if !ok {
		// Queue full of equally important frames: the newest loses.
		w.mu.Unlock()
		e.dropFrame(w, frame, kind, "backlog")
		return
	}
	w.push(outFrame{frame, kind})
	w.mu.Unlock()
	w.signal()
	e.dropFrame(w, victim.w, victim.kind, "backlog")
}

// dropFrame returns a frame to the pool and accounts for the loss:
// the drop counter always, the flight recorder on a sample (first drop
// per writer, then one in dropSampleEvery, running total attached).
func (e *Endpoint) dropFrame(w *peerWriter, frame *wire.Writer, kind wire.Kind, reason string) {
	wire.PutWriter(frame)
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Counter("dvp_net_dropped_frames_total",
			"site", e.cfg.Site.String(), "peer", w.site.String(),
			"reason", reason, "kind", kind.String()).Inc()
	}
	n := w.drops.Add(1)
	if n == 1 || n%dropSampleEvery == 0 {
		e.cfg.Flight.Recordf(e.cfg.Site.String(), "net-drop",
			"peer=%v reason=%s kind=%v dropped=%d", w.site, reason, kind, n)
	}
}

// noteFailure advances the peer state machine after a failed dial or a
// write/flush error: consecutive failures escalate healthy → suspect →
// down (at downAfter) and stretch the redial backoff exponentially
// with ±50% jitter, up to dialBackoffMax. Writer goroutine only.
func (e *Endpoint) noteFailure(w *peerWriter) {
	w.failures++
	prev := w.state.Load()
	next := peerSuspect
	if w.failures >= downAfter {
		next = peerDown
	}
	w.state.Store(next)
	backoff := dialBackoffMax
	if shift := w.failures - 1; shift < 20 {
		if b := dialBackoffMin << shift; b < backoff {
			backoff = b
		}
	}
	backoff = backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
	w.nextDial = time.Now().Add(backoff)
	if next == peerDown && prev != peerDown {
		e.cfg.Flight.Recordf(e.cfg.Site.String(), "net-peer-down",
			"peer=%v failures=%d", w.site, w.failures)
	}
}

// noteHealthy resets the peer state machine after a clean flush.
// Writer goroutine only.
func (e *Endpoint) noteHealthy(w *peerWriter) {
	if w.state.Load() == peerHealthy {
		return
	}
	w.state.Store(peerHealthy)
	w.failures = 0
	w.nextDial = time.Time{}
	e.cfg.Flight.Recordf(e.cfg.Site.String(), "net-peer-up", "peer=%v", w.site)
}

// writerLoop streams one peer's frames: lazy dial behind the backoff
// state machine, buffered writes, flush when the queue goes idle. A
// dial failure holds the frame and waits out the backoff window (at
// most one dial in flight per peer, one timed probe per window); a
// write error drops the connection and the in-flight frames (loss).
func (e *Endpoint) writerLoop(w *peerWriter, stop <-chan struct{}) {
	defer e.wg.Done()
	defer w.drainInto(e)
	var conn net.Conn
	var bw *bufio.Writer
	pc := e.peerm[w.site]
	drop := func() {
		if conn != nil {
			e.forgetConn(w.site, conn)
			conn = nil
			bw = nil
		}
	}
	defer drop()
	for {
		f, ok := w.next(stop)
		if !ok {
			return
		}
		probe := false
		for conn == nil {
			// Honor the backoff window before redialing; frames keep
			// queueing (and shedding) behind the held one meanwhile.
			if wait := time.Until(w.nextDial); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-stop:
					t.Stop()
					e.dropFrame(w, f.w, f.kind, "closed")
					return
				case <-t.C:
				}
			}
			c, err := net.DialTimeout("tcp", w.addr, dialTimeout)
			if err != nil {
				if pc != nil {
					pc.dialFailures.Inc()
				}
				e.noteFailure(w)
				continue
			}
			if !e.rememberConn(w.site, c) {
				c.Close()
				e.dropFrame(w, f.w, f.kind, "closed")
				return // endpoint closed under us
			}
			// Coming back from down runs half-open: the held frame goes
			// out alone, and only its clean flush restores healthy.
			probe = w.state.Load() == peerDown
			conn = c
			bw = bufio.NewWriterSize(conn, 64<<10)
		}
		// Write the frame plus everything already queued behind it,
		// then flush the batch with one syscall (well, one Flush).
		batched := 0
		var batchBytes uint64
		failed := false
		for {
			// bufio consumes the bytes before Write returns (copied or
			// written through), so the frame goes back to the pool
			// either way.
			n := f.w.Len()
			_, err := bw.Write(f.w.Bytes())
			if err != nil {
				e.dropFrame(w, f.w, f.kind, "write-error")
				drop()
				e.noteFailure(w)
				failed = true
				break
			}
			wire.PutWriter(f.w)
			batched++
			batchBytes += uint64(n)
			if probe {
				break
			}
			var more bool
			if f, more = w.tryNext(); !more {
				break
			}
		}
		if !failed && bw != nil && bw.Buffered() > 0 {
			if err := bw.Flush(); err != nil {
				drop()
				e.noteFailure(w)
				failed = true
			}
		}
		// The batch counters must agree with what was handed to bufio
		// even when the flush fails: bytes it already wrote through hit
		// the socket, and the failure itself is visible in the drop
		// counter and the peer state — not as vanished accounting.
		if pc != nil && batched > 0 {
			pc.msgsOut.Add(uint64(batched))
			pc.bytesOut.Add(batchBytes)
			pc.flushes.Inc()
		}
		if !failed && batched > 0 {
			e.noteHealthy(w)
		}
	}
}

// rememberConn registers a writer's live connection so Close can
// unblock it; reports false if the endpoint is already closed.
func (e *Endpoint) rememberConn(site ident.SiteID, conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.conns[site] = conn
	return true
}

// forgetConn drops a writer's dead connection from the registry.
func (e *Endpoint) forgetConn(site ident.SiteID, conn net.Conn) {
	e.mu.Lock()
	if e.conns[site] == conn {
		delete(e.conns, site)
	}
	e.mu.Unlock()
	conn.Close()
}

func (e *Endpoint) acceptLoop(ln net.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.accepted[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.accepted, conn)
		e.mu.Unlock()
	}()
	// Every buffer lives on the connection, not per frame. Reads go
	// through one bufio.Reader, so a small frame's header and body
	// arrive in one read syscall (often with the frames behind them).
	// deliver decodes synchronously and wire.Unmarshal copies everything
	// the handler retains, so the body buffer is free for the next frame
	// as soon as deliver returns. It grows to the largest frame seen and
	// is reallocated small again after an outsized one, so a single
	// huge frame doesn't pin its memory for the connection's lifetime.
	rd := bufio.NewReaderSize(conn, readBufSize)
	hdr := make([]byte, 4)
	var buf []byte
	for {
		if _, err := io.ReadFull(rd, hdr); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr)
		if n == 0 || n > maxFrame {
			return // corrupt or hostile peer
		}
		if cap(buf) < int(n) || cap(buf) > readBufRetain && int(n) <= readBufRetain {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		if _, err := io.ReadFull(rd, buf); err != nil {
			return
		}
		e.deliver(buf)
	}
}

// readBufRetain bounds the per-connection body buffer kept across
// frames, readBufSize is the connection's bufio buffer; see readLoop.
const (
	readBufRetain = 64 << 10
	readBufSize   = 16 << 10
)

func (e *Endpoint) deliver(buf []byte) {
	e.mu.Lock()
	h := e.handler
	closed := e.closed
	e.mu.Unlock()
	if h == nil || closed {
		return
	}
	env, err := wire.Unmarshal(buf)
	if err != nil {
		return // corrupt frame: drop, like line noise
	}
	if pc := e.peerm[env.From]; pc != nil {
		pc.msgsIn.Inc()
		pc.bytesIn.Add(uint64(len(buf)))
	}
	h(env)
}

// ErrNotOpen reports operations on an endpoint that failed to open.
var ErrNotOpen = errors.New("tcpnet: endpoint not open")
