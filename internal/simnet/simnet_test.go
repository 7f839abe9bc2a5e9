package simnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/ident"
	"dvp/internal/wire"
)

// collect attaches a recording handler to ep and returns the slice
// pointer plus a mutex-protected getter.
type collector struct {
	mu   sync.Mutex
	msgs []*wire.Envelope
}

func (c *collector) handler(env *wire.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, env)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) all() []*wire.Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*wire.Envelope(nil), c.msgs...)
}

func ack(n uint64) *wire.Envelope {
	return &wire.Envelope{Msg: &wire.VmAck{UpTo: n}}
}

func TestDeliveryBasic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)

	env := ack(7)
	env.To = 2
	if err := e1.Send(env); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	got := c.all()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].From != 1 || got[0].To != 2 {
		t.Errorf("addressing: %+v", got[0])
	}
	if a, ok := got[0].Msg.(*wire.VmAck); !ok || a.UpTo != 7 {
		t.Errorf("payload: %+v", got[0].Msg)
	}
}

func TestSendToUnknownSite(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	env := ack(1)
	env.To = 99
	if err := e1.Send(env); err == nil {
		t.Error("send to unknown site must error")
	}
}

func TestPartitionCutsTraffic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	e3 := n.Endpoint(3)
	var c2, c3 collector
	n.Endpoint(2).SetHandler(c2.handler)
	e3.SetHandler(c3.handler)

	n.Partition([]ident.SiteID{1, 3}, []ident.SiteID{2})

	envA := ack(1)
	envA.To = 2
	if err := e1.Send(envA); err != nil {
		t.Fatal(err) // cut is silent, not an error (§2.2)
	}
	envB := ack(2)
	envB.To = 3
	e1.Send(envB)
	n.Quiesce()
	if c2.count() != 0 {
		t.Error("message crossed the partition")
	}
	if c3.count() != 1 {
		t.Errorf("intra-group message lost: got %d", c3.count())
	}
	st := n.Stats()
	if st.Cut != 1 {
		t.Errorf("Cut = %d, want 1", st.Cut)
	}

	n.Heal()
	envC := ack(3)
	envC.To = 2
	e1.Send(envC)
	n.Quiesce()
	if c2.count() != 1 {
		t.Error("message lost after heal")
	}
}

func TestPartitionIsolatesUnlistedSites(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.Endpoint(3)
	var c3 collector
	n.Endpoint(3).SetHandler(c3.handler)

	n.Partition([]ident.SiteID{1, 2}) // site 3 unlisted → isolated
	env := ack(1)
	env.To = 3
	e1.Send(env)
	n.Quiesce()
	if c3.count() != 0 {
		t.Error("unlisted site must be isolated")
	}
}

func TestOneWayLinkFailure(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c1, c2 collector
	e1.SetHandler(c1.handler)
	e2.SetHandler(c2.handler)

	n.SetLink(1, 2, false) // 1→2 down, 2→1 up: a non-clean failure

	env := ack(1)
	env.To = 2
	e1.Send(env)
	rev := ack(2)
	rev.To = 1
	e2.Send(rev)
	n.Quiesce()
	if c2.count() != 0 {
		t.Error("1→2 should be cut")
	}
	if c1.count() != 1 {
		t.Error("2→1 should be up")
	}
	n.SetLink(1, 2, true)
	env2 := ack(3)
	env2.To = 2
	e1.Send(env2)
	n.Quiesce()
	if c2.count() != 1 {
		t.Error("restored link should deliver")
	}
}

func TestLossProbability(t *testing.T) {
	n := New(Config{Seed: 42, LossProb: 0.5})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)
	const total = 2000
	for i := 0; i < total; i++ {
		env := ack(uint64(i))
		env.To = 2
		e1.Send(env)
	}
	n.Quiesce()
	got := c.count()
	if got < total*35/100 || got > total*65/100 {
		t.Errorf("with 50%% loss delivered %d/%d", got, total)
	}
	st := n.Stats()
	if st.Lost+uint64(got) != total {
		t.Errorf("lost(%d)+delivered(%d) != sent(%d)", st.Lost, got, total)
	}
}

func TestDuplication(t *testing.T) {
	n := New(Config{Seed: 7, DupProb: 1.0})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)
	env := ack(9)
	env.To = 2
	e1.Send(env)
	n.Quiesce()
	if c.count() != 2 {
		t.Errorf("DupProb=1 delivered %d copies, want 2", c.count())
	}
}

func TestOrderPreservingFIFO(t *testing.T) {
	n := New(Config{
		Seed:            3,
		MinDelay:        0,
		MaxDelay:        2 * time.Millisecond,
		OrderPreserving: true,
	})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)
	const total = 200
	for i := 0; i < total; i++ {
		env := ack(uint64(i))
		env.To = 2
		e1.Send(env)
	}
	n.Quiesce()
	got := c.all()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	for i, env := range got {
		if env.Msg.(*wire.VmAck).UpTo != uint64(i) {
			t.Fatalf("out of order at %d: got seq %d", i, env.Msg.(*wire.VmAck).UpTo)
		}
	}
}

func TestReorderingHappensWithoutFIFO(t *testing.T) {
	n := New(Config{Seed: 5, MinDelay: 0, MaxDelay: 3 * time.Millisecond})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)
	const total = 300
	for i := 0; i < total; i++ {
		env := ack(uint64(i))
		env.To = 2
		e1.Send(env)
	}
	n.Quiesce()
	got := c.all()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	inOrder := true
	for i, env := range got {
		if env.Msg.(*wire.VmAck).UpTo != uint64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("expected at least one reordering with random delays")
	}
}

func TestClosedEndpointDropsTraffic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)
	e2.Close()
	env := ack(1)
	env.To = 2
	e1.Send(env)
	n.Quiesce()
	if c.count() != 0 {
		t.Error("closed endpoint received a message")
	}
	// Crashed site cannot send either.
	e2c := ack(2)
	e2c.To = 1
	if err := e2.Send(e2c); err == nil {
		t.Error("closed endpoint could send")
	}
	// Re-attach (recovery) and traffic flows again.
	e2b := n.Endpoint(2)
	e2b.SetHandler(c.handler)
	env2 := ack(3)
	env2.To = 2
	e1.Send(env2)
	n.Quiesce()
	if c.count() != 1 {
		t.Error("re-attached endpoint did not receive")
	}
}

func TestEndpointReattachIsSameAddress(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Endpoint(5)
	b := n.Endpoint(5)
	if a != b {
		t.Error("re-Endpoint for a site must return the same attachment")
	}
}

func TestStatsByKind(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	n.Endpoint(2).SetHandler(func(*wire.Envelope) {})
	env := ack(1)
	env.To = 2
	e1.Send(env)
	req := &wire.Envelope{To: 2, Msg: &wire.Request{Txn: 1, Item: "x", Want: 1}}
	e1.Send(req)
	n.Quiesce()
	st := n.Stats()
	if st.ByKind[wire.KVmAck] != 1 || st.ByKind[wire.KRequest] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}
	if st.Sent != 2 || st.Delivered != 2 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentSendersNoRace(t *testing.T) {
	n := New(Config{Seed: 11, MaxDelay: time.Millisecond, LossProb: 0.1, DupProb: 0.1})
	defer n.Close()
	const sites = 6
	cols := make([]*collector, sites+1)
	eps := make([]wire.Endpoint, sites+1)
	for s := 1; s <= sites; s++ {
		eps[s] = n.Endpoint(ident.SiteID(s))
		cols[s] = &collector{}
		eps[s].SetHandler(cols[s].handler)
	}
	var wg sync.WaitGroup
	for s := 1; s <= sites; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				env := ack(uint64(i))
				env.To = ident.SiteID(i%sites + 1)
				eps[s].Send(env)
			}
		}(s)
	}
	wg.Wait()
	n.Quiesce()
	st := n.Stats()
	var delivered uint64
	for s := 1; s <= sites; s++ {
		delivered += uint64(cols[s].count())
	}
	if delivered != st.Delivered {
		t.Errorf("handler saw %d, stats say %d", delivered, st.Delivered)
	}
}

func TestCloseStopsDelivery(t *testing.T) {
	n := New(Config{MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond})
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)
	env := ack(1)
	env.To = 2
	e1.Send(env)
	n.Close() // before the 50ms delay elapses
	// Quiesce rather than wall-clock sleep: it returns once the
	// in-flight delivery goroutine has run (and been dropped by the
	// closed check), making the assertion timing-independent.
	n.Quiesce()
	if c.count() != 0 {
		t.Error("message delivered after Close")
	}
}

func TestRuntimeFaultKnobs(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	var c collector
	e2.SetHandler(c.handler)

	send := func(k int) {
		for i := 0; i < k; i++ {
			env := ack(uint64(i))
			env.To = 2
			e1.Send(env)
		}
		n.Quiesce()
	}

	// 100% loss: nothing arrives.
	n.SetLoss(1.0)
	send(20)
	if c.count() != 0 {
		t.Fatalf("delivered %d with loss=1.0, want 0", c.count())
	}
	// Back to lossless: everything arrives.
	n.SetLoss(0)
	send(20)
	if c.count() != 20 {
		t.Fatalf("delivered %d with loss=0, want 20", c.count())
	}
	// 100% duplication: every message arrives twice.
	n.SetDup(1.0)
	send(10)
	if got := c.count(); got != 40 {
		t.Fatalf("delivered %d with dup=1.0, want 40", got)
	}
}

func TestScheduleAfterFiresOnClock(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	fired := make(chan struct{})
	n.ScheduleAfter(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("scheduled fault never fired")
	}
}

func TestScheduleAfterSkippedWhenClosed(t *testing.T) {
	n := New(Config{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	var fired atomic.Bool
	done := make(chan struct{})
	n.ScheduleAfter(10*time.Millisecond, func() { fired.Store(true) })
	n.ScheduleAfter(10*time.Millisecond, func() { close(done) })
	n.Close()
	// The second callback never runs (net closed), so wait on the
	// first timer's worst case via a third schedule on the real clock.
	select {
	case <-done:
		t.Fatal("scheduled fault ran after Close")
	case <-time.After(50 * time.Millisecond):
	}
	if fired.Load() {
		t.Error("scheduled fault ran after Close")
	}
}

func TestTapSeesEveryFrame(t *testing.T) {
	n := New(Config{LossProb: 1.0}) // even lost messages are tapped
	defer n.Close()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	var frames atomic.Int64
	n.SetTap(func(from, to ident.SiteID, kind wire.Kind, frame []byte) {
		if from != 1 || to != 2 || kind != wire.KVmAck || len(frame) == 0 {
			t.Errorf("tap saw from=%v to=%v kind=%v len=%d", from, to, kind, len(frame))
		}
		if _, err := wire.Unmarshal(frame); err != nil {
			t.Errorf("tapped frame does not decode: %v", err)
		}
		frames.Add(1)
	})
	for i := 0; i < 5; i++ {
		env := ack(uint64(i))
		env.To = 2
		e1.Send(env)
	}
	n.Quiesce()
	if frames.Load() != 5 {
		t.Errorf("tap saw %d frames, want 5", frames.Load())
	}
}
