package tcpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/site"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"

	"dvp/internal/core"
)

// pair builds two connected endpoints on loopback.
func pair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	e1, err := New(Config{Site: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Config{Site: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	e1.cfg.Peers = map[ident.SiteID]string{2: e2.Addr()}
	e2.cfg.Peers = map[ident.SiteID]string{1: e1.Addr()}
	t.Cleanup(func() { e1.Close(); e2.Close() })
	return e1, e2
}

func TestSendReceive(t *testing.T) {
	e1, e2 := pair(t)
	got := make(chan *wire.Envelope, 1)
	e2.SetHandler(func(env *wire.Envelope) { got <- env })
	env := &wire.Envelope{To: 2, Lamport: tstamp.Make(5, 1), Msg: &wire.VmAck{UpTo: 9}}
	if err := e1.Send(env); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-got:
		if g.From != 1 || g.Msg.(*wire.VmAck).UpTo != 9 || g.Lamport != tstamp.Make(5, 1) {
			t.Errorf("got %+v", g)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestLoopback(t *testing.T) {
	e1, _ := pair(t)
	got := make(chan *wire.Envelope, 1)
	e1.SetHandler(func(env *wire.Envelope) { got <- env })
	e1.Send(&wire.Envelope{To: 1, Msg: &wire.VmAck{UpTo: 1}})
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("loopback failed")
	}
}

func TestUnreachablePeerIsSilentLoss(t *testing.T) {
	e1, e2 := pair(t)
	e2.Close()
	env := &wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: 1}}
	if err := e1.Send(env); err != nil {
		t.Errorf("unreachable peer must be silent loss, got %v", err)
	}
}

func TestUnknownSite(t *testing.T) {
	e1, _ := pair(t)
	if err := e1.Send(&wire.Envelope{To: 99, Msg: &wire.VmAck{}}); err == nil {
		t.Error("unknown site must error")
	}
}

func TestCloseReopen(t *testing.T) {
	e1, e2 := pair(t)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Open(); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 1)
	e2.SetHandler(func(*wire.Envelope) { got <- struct{}{} })
	// The sender's cached conn died with Close; first send may be
	// dropped, later sends reconnect.
	deadline := time.Now().Add(3 * time.Second)
	for {
		e1.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: 1}})
		select {
		case <-got:
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("reopened endpoint never received")
		}
	}
}

func TestManyMessagesManyGoroutines(t *testing.T) {
	e1, e2 := pair(t)
	var count int
	var mu sync.Mutex
	e2.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	const total = 500
	var wg sync.WaitGroup
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/5; i++ {
				e1.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: uint64(i)}})
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d (TCP is reliable; all must arrive)", c, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWriterCoalescesBurst is the syscall-batching regression test: a
// burst of envelopes queued before the writer goroutine starts must
// leave as ONE flush (msgsOut counts envelopes, flushes counts syscall
// batches). Pre-filling the queue and then starting the loop makes the
// batch boundary deterministic — the drain loop writes every queued
// frame through the bufio.Writer before its single Flush.
func TestWriterCoalescesBurst(t *testing.T) {
	reg := obs.NewRegistry()
	e2, err := New(Config{Site: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	e1, err := New(Config{
		Site: 1, Listen: "127.0.0.1:0",
		Peers:   map[ident.SiteID]string{2: e2.Addr()},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	var mu sync.Mutex
	var got int
	e2.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		got++
		mu.Unlock()
	})

	const burst = 10
	w := newPeerWriter(2, e2.Addr())
	for i := 0; i < burst; i++ {
		env := &wire.Envelope{From: 1, To: 2, Msg: &wire.VmAck{UpTo: uint64(i)}}
		frame := wire.GetWriter()
		frame.U32(0)
		if err := env.MarshalInto(frame); err != nil {
			t.Fatal(err)
		}
		frame.PatchU32(0, uint32(frame.Len()-4))
		w.mu.Lock()
		w.push(outFrame{frame, wire.KVmAck})
		w.mu.Unlock()
	}
	w.signal()
	e1.mu.Lock()
	e1.writers[2] = w
	stop := e1.stop
	e1.mu.Unlock()
	e1.wg.Add(1)
	go e1.writerLoop(w, stop)

	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := got
		mu.Unlock()
		if c == burst {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", c, burst)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := reg.CounterValue("dvp_net_msgs_out_total", "site", "s1", "peer", "s2"); n != burst {
		t.Errorf("msgsOut = %d, want %d", n, burst)
	}
	if n := reg.CounterValue("dvp_net_flushes_total", "site", "s1", "peer", "s2"); n != 1 {
		t.Errorf("flushes = %d, want 1 (the whole burst must share one syscall batch)", n)
	}
}

// TestAllocsPerEnvelope is the hot-path allocation regression test:
// one envelope, sender enqueue through receiver delivery, measured
// end to end on a warm connection. The pooled frame writers, the
// per-connection read header and the reusable body buffer together
// keep the steady-state cost to the decode-side allocations
// (envelope + message) plus scheduler noise; the ceiling here fails
// if any layer reintroduces a per-frame buffer.
func TestAllocsPerEnvelope(t *testing.T) {
	e1, e2 := pair(t)
	got := make(chan struct{}, 1)
	e2.SetHandler(func(*wire.Envelope) { got <- struct{}{} })
	env := &wire.Envelope{To: 2, Lamport: tstamp.Make(5, 1), Msg: &wire.VmAck{UpTo: 9}}
	send := func() {
		if err := e1.Send(env); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("envelope never arrived")
		}
	}
	send() // warm: dial, writer goroutine, read buffers, pool
	const ceiling = 16.0
	if allocs := testing.AllocsPerRun(200, send); allocs > ceiling {
		t.Errorf("send→deliver allocates %.1f allocs/envelope, ceiling %.0f", allocs, ceiling)
	}
}

// TestConcurrentSendersShareWriterPool hammers the pooled frame path
// from many goroutines at once — the scenario where a pool bug (a
// writer recycled while its bytes are still queued, a missed Reset)
// corrupts frames. Every envelope carries a distinct payload and every
// payload must arrive exactly once, intact. Run under -race this also
// proves the pool handoff is properly synchronized.
func TestConcurrentSendersShareWriterPool(t *testing.T) {
	const senders = 8
	const perSender = 100
	e1, e2 := pair(t)
	var mu sync.Mutex
	seen := make(map[uint64]int)
	e2.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		seen[env.Msg.(*wire.VmAck).UpTo]++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(s*perSender + i)
				if err := e1.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: id}}); err != nil {
					t.Errorf("send %d: %v", id, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == senders*perSender {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d distinct payloads", n, senders*perSender)
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for id := uint64(0); id < senders*perSender; id++ {
		if seen[id] != 1 {
			t.Errorf("payload %d arrived %d times, want exactly 1 (TCP: no loss, no duplication)", id, seen[id])
		}
	}
}

// dvpSite opens the DvP site engine over a memory log on ep, one of the
// pair, with share of flight/A, and starts it.
func dvpSite(t *testing.T, ep *Endpoint, id ident.SiteID, share core.Value, rebalance site.RebalanceConfig) *site.Site {
	t.Helper()
	rebalance.Seed = int64(id)
	s, err := site.Open(wal.NewMemLog(), site.Config{
		ID: id, Peers: []ident.SiteID{1, 2},
		Endpoint:        ep,
		CC:              cc.New(cc.Conc1),
		RetransmitEvery: 10 * time.Millisecond,
		DefaultTimeout:  500 * time.Millisecond,
		Rebalance:       rebalance,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.DB().Create("flight/A", share)
	s.Start()
	return s
}

// TestDvpSitesOverTCP runs the full DvP site engine over real sockets:
// the §3 redistribution flow end to end on localhost.
func TestDvpSitesOverTCP(t *testing.T) {
	e1, e2 := pair(t)
	s1 := dvpSite(t, e1, 1, 2, site.RebalanceConfig{})
	s2 := dvpSite(t, e2, 2, 20, site.RebalanceConfig{})

	// Needs redistribution over real TCP.
	res := s1.Run(&txn.Txn{
		Ops: []txn.ItemOp{{Item: "flight/A", Op: core.Decr{M: 10}}},
		Ask: txn.AskAll,
	})
	if !res.Committed() {
		t.Fatalf("TCP redistribution txn: %v", res.Status)
	}
	if v := s1.DB().Value("flight/A") + s2.DB().Value("flight/A"); v != 12 {
		t.Errorf("on-site total = %d, want 12", v)
	}
}

// TestDemandAdvertOverTCP exercises the rebalancer's gossip message
// through the real framing path: encode, length-prefix, socket, decode.
func TestDemandAdvertOverTCP(t *testing.T) {
	e1, e2 := pair(t)
	got := make(chan *wire.Envelope, 1)
	e2.SetHandler(func(env *wire.Envelope) { got <- env })
	adv := &wire.DemandAdvert{Entries: []wire.DemandEntry{
		{Item: "flight/A", Demand: 12500, Have: 40},
		{Item: "flight/B", Demand: 0, Have: 3},
	}}
	if err := e1.Send(&wire.Envelope{To: 2, Lamport: tstamp.Make(9, 1), Msg: adv}); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-got:
		m, ok := g.Msg.(*wire.DemandAdvert)
		if !ok {
			t.Fatalf("decoded %T, want *wire.DemandAdvert", g.Msg)
		}
		if len(m.Entries) != 2 || m.Entries[0] != adv.Entries[0] || m.Entries[1] != adv.Entries[1] {
			t.Errorf("entries = %+v, want %+v", m.Entries, adv.Entries)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("advert never arrived")
	}
}

// TestDemandRebalanceOverTCP runs the demand-driven rebalancer between
// two real-socket sites: committed consumption at one site builds a
// demand estimate, the adverts cross localhost, and the idle site's
// surplus follows — with no transaction ever asking for it.
func TestDemandRebalanceOverTCP(t *testing.T) {
	e1, e2 := pair(t)
	rebalance := site.RebalanceConfig{
		Enabled:     true,
		Interval:    5 * time.Millisecond,
		HalfLife:    200 * time.Millisecond,
		AdvertStale: 25 * time.Millisecond,
	}
	dvpSite(t, e1, 1, 30, rebalance)
	s2 := dvpSite(t, e2, 2, 30, rebalance)

	// All consumption happens at site 2 (purely local commits). Its
	// demand EWMA rises; site 1's stays zero; quota should drift to
	// where it is being spent.
	for i := 0; i < 4; i++ {
		res := s2.Run(&txn.Txn{
			Ops: []txn.ItemOp{{Item: "flight/A", Op: core.Decr{M: 5}}},
		})
		if !res.Committed() {
			t.Fatalf("local decrement %d: %v", i, res.Status)
		}
	}
	// Site 2 is down to 10; the rebalancer must pull it back above 20
	// out of site 1's idle 30.
	deadline := time.Now().Add(3 * time.Second)
	for s2.DB().Value("flight/A") < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("rebalancer never shipped surplus: site2 holds %d", s2.DB().Value("flight/A"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeadPeerDialRateBounded is the dial-storm regression test: a
// steady stream of sends toward a closed port must cost one timed
// probe per backoff window, not one dial per frame. The bound is
// absolute: a writer that dialed once per send (about 500 sends in the
// window) could not meet it.
func TestDeadPeerDialRateBounded(t *testing.T) {
	// Reserve an address with nothing listening on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	e, err := New(Config{
		Site: 1, Listen: "127.0.0.1:0",
		Peers:   map[ident.SiteID]string{2: deadAddr},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		e.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: 1}})
		time.Sleep(time.Millisecond)
	}
	dials := reg.CounterValue("dvp_net_dial_failures_total", "site", "s1", "peer", "s2")
	// Jittered doubling from 25ms (half of it at the least) toward the
	// 2s cap: at most ~7 attempts in 500ms; 25 leaves room for
	// scheduler noise.
	if dials < 1 || dials > 25 {
		t.Errorf("backoff: %d dial attempts in 500ms toward a dead peer, want 1..25", dials)
	}
}

// TestDeadPeerGoesDownAndSheds drives the peer state machine to
// "down" against a closed port and then checks the overflow policy
// frame by frame: no dial succeeds, so the writer keeps holding the
// one frame it popped while the queue fills, low-priority adverts are
// dropped (and counted) on overflow, and a high-priority ack evicts the oldest
// queued advert instead of being lost itself. Every drop must show up
// in dvp_net_dropped_frames_total and (sampled) the flight recorder.
func TestDeadPeerGoesDownAndSheds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	flight := obs.NewFlight(128)
	e, err := New(Config{
		Site: 1, Listen: "127.0.0.1:0",
		Peers:   map[ident.SiteID]string{2: deadAddr},
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	advert := func() *wire.Envelope {
		return &wire.Envelope{To: 2, Msg: &wire.DemandAdvert{
			Entries: []wire.DemandEntry{{Item: "flight/A", Demand: 1, Have: 1}},
		}}
	}

	// First frame: the writer pops it, fails the dial, and keeps it
	// through every backoff window after.
	if err := e.Send(advert()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.CounterValue("dvp_net_dial_failures_total", "site", "s1", "peer", "s2") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dial failure never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if st := e.PeerState(2); st != "suspect" && st != "down" {
		t.Errorf("after a failed dial peer state = %q, want suspect or down", st)
	}

	// Fill the queue exactly, then overflow it with 5 more adverts.
	for i := 0; i < peerWriterQueue+5; i++ {
		if err := e.Send(advert()); err != nil {
			t.Fatal(err)
		}
	}
	// Three acks arrive at the full queue: each must evict an advert.
	for i := 0; i < 3; i++ {
		if err := e.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}

	dropped := func(kind string) uint64 {
		return reg.CounterValue("dvp_net_dropped_frames_total",
			"site", "s1", "peer", "s2", "reason", "backlog", "kind", kind)
	}
	if n := dropped("demandadvert"); n != 8 {
		t.Errorf("advert backlog drops = %d, want 8 (5 overflow + 3 evicted by acks)", n)
	}
	if n := dropped("vmack"); n != 0 {
		t.Errorf("ack backlog drops = %d, want 0 (acks must displace adverts, not vanish)", n)
	}
	if flight.Recorded() == 0 {
		t.Error("drops left no flight-recorder events")
	}
	var sawDrop bool
	for _, ev := range flight.Last(16) {
		if ev.Kind == "net-drop" {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Error("flight recorder has no net-drop event")
	}
}

// TestDeadPeerRecoversThroughProbe is the heal path: the peer dies
// (nothing bound on its port), the sender's state machine marks it
// down, and when an endpoint binds the port again the half-open probe
// re-admits it — traffic resumes and the state returns to healthy.
func TestDeadPeerRecoversThroughProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	e1, err := New(Config{
		Site: 1, Listen: "127.0.0.1:0",
		Peers:   map[ident.SiteID]string{2: addr},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()

	// Drive the peer down.
	deadline := time.Now().Add(3 * time.Second)
	for e1.PeerState(2) != "down" {
		e1.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: 1}})
		if time.Now().After(deadline) {
			t.Fatalf("peer never marked down (state %q)", e1.PeerState(2))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Heal: bind the reserved address for real.
	e2, err := New(Config{Site: 2, Listen: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	var mu sync.Mutex
	var got int
	e2.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		got++
		mu.Unlock()
	})

	// Keep sending; the probe must re-admit the peer and deliver.
	deadline = time.Now().Add(5 * time.Second)
	for {
		e1.Send(&wire.Envelope{To: 2, Msg: &wire.VmAck{UpTo: 2}})
		mu.Lock()
		c := got
		mu.Unlock()
		if c > 0 && e1.PeerState(2) == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never recovered: state %q, delivered %d", e1.PeerState(2), c)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Accounting sanity after the failure/heal cycle: every flush
	// carried at least one message.
	msgs := reg.CounterValue("dvp_net_msgs_out_total", "site", "s1", "peer", "s2")
	flushes := reg.CounterValue("dvp_net_flushes_total", "site", "s1", "peer", "s2")
	if msgs == 0 || flushes == 0 || msgs < flushes {
		t.Errorf("inconsistent counters after heal: msgsOut=%d flushes=%d", msgs, flushes)
	}
}
