package site

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wire"
)

// The flow vector is a field of the item's state: these run on bare
// itemState values, as the commit tail and the Vm handler use them
// under the stripe.

func TestFlowClocksBasics(t *testing.T) {
	var x, y itemState
	if idx := x.writerCommit(1); idx != 1 {
		t.Errorf("first writer idx = %d", idx)
	}
	if idx := x.writerCommit(1); idx != 2 {
		t.Errorf("second writer idx = %d", idx)
	}
	if idx := y.writerCommit(1); idx != 1 {
		t.Errorf("independent item idx = %d", idx)
	}
	snap := x.flowSnapshot()
	if snap[1] != 2 || len(snap) != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	// Snapshot is a copy.
	snap[1] = 99
	if x.flowSnapshot()[1] != 2 {
		t.Error("snapshot aliases internal state")
	}
}

func TestFlowClocksMerge(t *testing.T) {
	var x itemState
	x.writerCommit(1)
	x.mergeFlow(FlowVec{2: 5, 1: 0}.Entries()) // stale component 1 ignored
	snap := x.flowSnapshot()
	if snap[1] != 1 || snap[2] != 5 {
		t.Errorf("after merge: %v", snap)
	}
	x.mergeFlow(FlowVec{2: 3}.Entries()) // stale: no regress
	if x.flowSnapshot()[2] != 5 {
		t.Error("merge regressed a component")
	}
	x.mergeFlow(nil) // no-op
}

// TestFlowClocksReset: Crash's sweep leaves no vector behind (nor
// anything else of the item's volatile state).
func TestFlowClocksReset(t *testing.T) {
	tc := newTestCluster(t, 1, simnet.Config{Seed: 61}, nil)
	s := tc.sites[0]
	peekItem(s, "x", func(st *itemState) {
		st.writerCommit(1)
		st.demand.add(5, time.Unix(1000, 0), time.Second)
		st.deferred = []deferredVm{{from: 2}}
		st.holder = 7
	})
	s.Crash()
	peekItem(s, "x", func(st *itemState) {
		if len(st.flowSnapshot()) != 0 || st.demand != (itemDemand{}) || st.deferred != nil || st.holder != ident.NoTxn {
			t.Errorf("crash left item state behind: %+v", *st)
		}
	})
}

func TestFlowVecEntriesRoundTrip(t *testing.T) {
	v := FlowVec{3: 7, 1: 2}
	es := v.Entries()
	if len(es) != 2 || es[0].Site != 1 || es[0].Count != 2 || es[1].Site != 3 || es[1].Count != 7 {
		t.Errorf("entries = %+v (must be site-sorted)", es)
	}
	if FlowVec(nil).Entries() != nil {
		t.Error("empty vec must encode as nil")
	}
	var back itemState
	back.mergeFlow(es)
	if back.flow[1] != 2 || back.flow[3] != 7 || len(back.flow) != 2 {
		t.Errorf("round trip = %v", back.flow)
	}
	back = itemState{}
	back.mergeFlow(nil)
	if back.flow != nil {
		t.Error("nil entries must leave the vector nil")
	}
}

// TestFlowCheckerOnLiveHistory runs a concurrent workload with reads
// and verifies it with the flow checker — exercising the vectors as
// they actually travel with grants. Each full read starts from a
// quiescent cluster: the flow checker has no model of a Vm still in
// flight when a read gathers (TestFlowCheckerFullReadRacingVm pins that
// window), so the history must not contain one.
func TestFlowCheckerOnLiveHistory(t *testing.T) {
	tc := newTestCluster(t, 4, simnet.Config{Seed: 60, MaxDelay: time.Millisecond}, nil)
	const total = core.Value(200)
	tc.createItem("x", total)
	for i := 0; i < 30; i++ {
		s := tc.sites[i%4]
		switch i % 5 {
		case 0:
			tc.waitQuiescent("x", 2*time.Second)
			tx := readItem("x")
			tx.Timeout = 80 * time.Millisecond
			s.Run(tx)
		case 1:
			s.Run(cancel("x", 2))
		default:
			tx := reserve("x", 3)
			tx.Timeout = 80 * time.Millisecond
			s.Run(tx)
		}
	}
	tc.waitQuiescent("x", 2*time.Second)
	initial := map[ident.ItemID]core.Value{"x": total}
	final := map[ident.ItemID]core.Value{"x": tc.globalTotal("x")}
	if err := cc.CheckSerializableFlow(initial, final, tc.committedTxns()); err != nil {
		t.Errorf("live history failed flow check: %v", err)
	}
}

// heldNet cuts every link of a test cluster and keeps what the sites
// send, so a test delivers envelopes by hand, in the order it wants.
type heldNet struct {
	mu   sync.Mutex
	envs []*wire.Envelope
}

func holdNet(t *testing.T, tc *testCluster) *heldNet {
	h := &heldNet{}
	tc.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool { return false })
	tc.net.SetTap(func(from, to ident.SiteID, kind wire.Kind, frame []byte) {
		env, err := wire.Unmarshal(append([]byte(nil), frame...))
		if err != nil {
			t.Errorf("tap: bad frame: %v", err)
			return
		}
		h.mu.Lock()
		h.envs = append(h.envs, env)
		h.mu.Unlock()
	})
	return h
}

// take waits for an envelope of the given kind on from→to and removes
// it from the held set.
func (h *heldNet) take(t *testing.T, from, to ident.SiteID, kind wire.Kind) *wire.Envelope {
	t.Helper()
	var env *wire.Envelope
	waitUntil(t, 2*time.Second, fmt.Sprintf("%v→%v kind %v sent", from, to, kind), func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		for i, e := range h.envs {
			if e.From == from && e.To == to && e.Msg.Kind() == kind {
				env = e
				h.envs = append(h.envs[:i], h.envs[i+1:]...)
				return true
			}
		}
		return false
	})
	return env
}

// TestFlowCheckerFullReadRacingVm pins, deterministically, what a full
// read returns when a Vm is in flight as it gathers. Site 3 has sent 2
// units toward site 2. The read's request reaches site 2 first, which
// answers with its whole holding; then the Vm lands at site 2 and is
// acknowledged, so by the time the request reaches site 3 nothing is
// outstanding there and it answers too. Every peer has responded, no
// site has a Vm outstanding, and 2 units sit outside the gather: the
// read commits N − 2, not §5's "all of Π⁻¹(d)". That is serializable
// subject to redistribution — each Rds half is its own transaction
// (§6), the deduct before the read and the credit after it — and the
// timestamp-order checker, fed both OnRds halves, accepts it. The flow
// checker has no such window and rejects it. This test asserts what
// the site does today; it does not say the protocol should.
func TestFlowCheckerFullReadRacingVm(t *testing.T) {
	var rdsMu sync.Mutex
	var rds []RdsInfo
	tc := newTestCluster(t, 3, simnet.Config{Seed: 62}, func(i int, c *Config) {
		c.RetransmitEvery = 10 * time.Second // every delivery below is by hand
		c.OnRds = func(ri RdsInfo) {
			rdsMu.Lock()
			rds = append(rds, ri)
			rdsMu.Unlock()
		}
	})
	const total = core.Value(30)
	tc.createItem("x", total) // 10 per site
	reader, peer, sender := tc.sites[0], tc.sites[1], tc.sites[2]
	net := holdNet(t, tc)

	// The in-flight Vm: 2 units leave the sender for the peer.
	if err := sender.SendValue("x", peer.ID(), 2); err != nil {
		t.Fatal(err)
	}
	inFlight := net.take(t, 3, 2, wire.KVm)

	// The reader's clock is ahead of the sender's deduct, so Conc1
	// admits its request there.
	reader.handle(&wire.Envelope{From: 3, To: 1, Lamport: tstamp.Make(100, 3), Msg: &wire.VmAck{}})
	done := make(chan *txn.Result, 1)
	go func() {
		tx := readItem("x")
		tx.Timeout = 5 * time.Second
		done <- reader.Run(tx)
	}()

	peer.handle(net.take(t, 1, 2, wire.KRequest)) // the peer answers: all 10
	peer.handle(inFlight)                         // then accepts the Vm
	sender.handle(net.take(t, 2, 3, wire.KVmAck)) // whose ack retires it
	if sender.VM().HasOutstanding("x") {
		t.Fatal("sender still has the Vm outstanding after its ack")
	}
	sender.handle(net.take(t, 1, 3, wire.KRequest)) // the sender answers: all 8
	reader.handle(net.take(t, 2, 1, wire.KVm))
	reader.handle(net.take(t, 3, 1, wire.KVm))

	var res *txn.Result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("full read did not return")
	}
	if !res.Committed() || res.Reads["x"] != total-2 {
		t.Fatalf("full read: %v, read %d, want committed and %d (N minus the Vm in flight)", res.Status, res.Reads["x"], total-2)
	}
	if got := peer.DB().Value("x"); got != 2 {
		t.Fatalf("peer holds %d, want the 2 units that arrived behind its answer", got)
	}

	initial := map[ident.ItemID]core.Value{"x": total}
	final := map[ident.ItemID]core.Value{"x": tc.globalTotal("x")}
	txns := tc.committedTxns()
	if err := cc.CheckSerializableFlow(initial, final, txns); err == nil {
		t.Error("flow checker accepted a full read that missed value in flight; it has no model of that window")
	}
	// Fold every Rds half in at its stamp, as the chaos harness does.
	byTS := make(map[tstamp.TS]int)
	for k := range txns {
		byTS[txns[k].TS] = k
	}
	rdsMu.Lock()
	for _, e := range rds {
		k, ok := byTS[e.TS]
		if !ok {
			txns = append(txns, cc.CommittedTxn{TS: e.TS, Site: e.Site})
			k = len(txns) - 1
			byTS[e.TS] = k
		}
		if txns[k].Deltas == nil {
			txns[k].Deltas = make(map[ident.ItemID]core.Value)
		}
		txns[k].Deltas[e.Item] += e.Delta
	}
	rdsMu.Unlock()
	if err := cc.CheckSerializable(initial, final, txns); err != nil {
		t.Errorf("timestamp-order checker with both OnRds halves rejected the history: %v", err)
	}
}
