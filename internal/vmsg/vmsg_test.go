package vmsg

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dvp/internal/ident"
	"dvp/internal/vclock"
	"dvp/internal/wal"
)

func TestAllocSeqDense(t *testing.T) {
	m := NewManager()
	for i := uint64(1); i <= 5; i++ {
		if got := m.AllocSeq(2); got != i {
			t.Fatalf("AllocSeq #%d = %d", i, got)
		}
	}
	if got := m.AllocSeq(3); got != 1 {
		t.Errorf("seq spaces must be per-peer; got %d", got)
	}
}

func TestCreatedPendingAck(t *testing.T) {
	m := NewManager()
	s1 := m.AllocSeq(2)
	s2 := m.AllocSeq(2)
	m.Created([]wal.VmOut{
		{To: 2, Seq: s1, Item: "a", Amount: 5},
		{To: 2, Seq: s2, Item: "a", Amount: 3},
	})
	if p := m.PendingTo(2); len(p) != 2 || p[0].Seq != 1 || p[1].Seq != 2 {
		t.Fatalf("pending = %+v", p)
	}
	m.OnAck(2, 1)
	if p := m.PendingTo(2); len(p) != 1 || p[0].Seq != 2 {
		t.Fatalf("after ack(1): %+v", p)
	}
	// Stale ack is ignored.
	m.OnAck(2, 0)
	if len(m.PendingTo(2)) != 1 {
		t.Error("stale ack changed state")
	}
	m.OnAck(2, 2)
	if len(m.PendingTo(2)) != 0 {
		t.Error("ack(2) should clear all pending")
	}
	if m.CumAck(2) != 2 {
		t.Errorf("CumAck = %d", m.CumAck(2))
	}
}

func TestCreatedBelowAckDropped(t *testing.T) {
	m := NewManager()
	m.OnAck(2, 5)
	m.Created([]wal.VmOut{{To: 2, Seq: 3, Item: "a", Amount: 1}})
	if len(m.PendingTo(2)) != 0 {
		t.Error("recovery replay of an acked Vm must not re-pend it")
	}
	if m.OutSeq(2) < 3 {
		t.Error("Created must advance the seq cursor")
	}
}

func TestRetireHookSeqOrderPerAck(t *testing.T) {
	m := NewManager()
	var retired []wal.VmOut
	m.SetRetireHook(func(peer ident.SiteID, v wal.VmOut) {
		if peer != 2 {
			t.Errorf("retire hook peer = %v, want 2", peer)
		}
		retired = append(retired, v)
	})
	m.Created([]wal.VmOut{
		{To: 2, Seq: 1, Item: "a", Amount: 5},
		{To: 2, Seq: 2, Item: "a", Amount: 3},
		{To: 2, Seq: 3, Item: "b", Amount: 1},
		{To: 3, Seq: 1, Item: "a", Amount: 9},
	})
	// One cumulative ack retires seq 1..2, in seq order, only for peer 2.
	m.OnAck(2, 2)
	if len(retired) != 2 || retired[0].Seq != 1 || retired[1].Seq != 2 {
		t.Fatalf("retired after ack(2,2) = %+v", retired)
	}
	// A stale ack retires nothing; the next advance retires only seq 3.
	m.OnAck(2, 2)
	m.OnAck(2, 3)
	if len(retired) != 3 || retired[2].Seq != 3 || retired[2].Item != "b" {
		t.Fatalf("retired after ack(2,3) = %+v", retired)
	}
	// Unhooking stops observation without disturbing the channel.
	m.SetRetireHook(nil)
	m.OnAck(3, 1)
	if len(retired) != 3 {
		t.Errorf("nil hook still observed a retire: %+v", retired)
	}
	if m.HasOutstanding("a") || m.HasOutstanding("b") {
		t.Error("acked Vm still outstanding")
	}
}

func TestPendingAllAcrossPeers(t *testing.T) {
	m := NewManager()
	m.Created([]wal.VmOut{
		{To: 3, Seq: 1, Item: "a", Amount: 1},
		{To: 2, Seq: 1, Item: "b", Amount: 2},
	})
	all := m.PendingAll()
	if len(all) != 2 || all[0].To != 2 || all[1].To != 3 {
		t.Errorf("PendingAll = %+v", all)
	}
}

func TestHasOutstanding(t *testing.T) {
	m := NewManager()
	m.Created([]wal.VmOut{
		{To: 2, Seq: 1, Item: "a", Amount: 5},
		{To: 3, Seq: 1, Item: "a", Amount: 2},
		{To: 3, Seq: 2, Item: "b", Amount: 9},
	})
	if !m.HasOutstanding("a") || !m.HasOutstanding("b") || m.HasOutstanding("c") {
		t.Error("HasOutstanding wrong")
	}
	m.OnAck(3, 2)
	if m.HasOutstanding("b") {
		t.Error("acked Vm still outstanding")
	}
}

// The outbound pair mirrors the inbound one: a Vm whose create record
// is only enqueued is outstanding (its value has left the store) and
// checkpointed, but not in the retransmission set; CreateStable moves
// it there with the manager's clock as its send instant.
func TestCreateEnqueuedThenStable(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	v := wal.VmOut{To: 2, Seq: m.AllocSeq(2), Item: "a", Amount: 4}
	m.CreateEnqueued([]wal.VmOut{v})
	if !m.HasOutstanding("a") {
		t.Error("an enqueued Vm must count as outstanding")
	}
	if p := m.PendingTo(2); len(p) != 0 || m.PendingCount(2) != 0 {
		t.Errorf("enqueued Vm in the retransmission set: %+v", p)
	}
	if d := m.Due(2, clock.Now().Add(time.Hour), time.Millisecond); len(d) != 0 {
		t.Errorf("a sweep resends a Vm that is only enqueued: %+v", d)
	}
	chs := m.SnapshotChannels()
	if len(chs) != 1 || len(chs[0].Pending) != 1 || chs[0].Pending[0].Seq != v.Seq {
		t.Errorf("checkpoint channels = %+v, want the enqueued Vm carried", chs)
	}

	clock.Advance(3 * time.Millisecond)
	m.CreateStable([]wal.VmOut{v})
	if p := m.PendingTo(2); len(p) != 1 || p[0].Seq != v.Seq {
		t.Fatalf("after CreateStable: pending = %+v", p)
	}
	clock.Advance(7 * time.Millisecond)
	m.OnAck(2, v.Seq)
	if m.HasOutstanding("a") {
		t.Error("acked Vm still outstanding")
	}
	// The 7ms round trip, read on the manager's clock from the send
	// instant, seeds a 14ms gap (inside the cap at a 2ms base): a Vm
	// sent now is resent at 14ms, not before.
	const base = 2 * time.Millisecond
	v2 := created(m, "b")
	if d := dueSeqs(m, clock.Now().Add(14*time.Millisecond-1), base); len(d) != 0 {
		t.Errorf("resent inside the 14ms seed gap: %v", d)
	}
	if d := dueSeqs(m, clock.Now().Add(14*time.Millisecond), base); !slices.Equal(d, []uint64{v2.Seq}) {
		t.Errorf("at the 14ms seed gap: due = %v, want [%d]", d, v2.Seq)
	}
}

// created registers one stable Vm toward peer 2, sent at the manager's
// clock reading.
func created(m *Manager, item ident.ItemID) wal.VmOut {
	v := wal.VmOut{To: 2, Seq: m.AllocSeq(2), Item: item, Amount: 1}
	m.Created([]wal.VmOut{v})
	return v
}

// dueSeqs returns the seqs a sweep toward peer 2 resends at at.
func dueSeqs(m *Manager, at time.Time, base time.Duration) []uint64 {
	var seqs []uint64
	for _, v := range m.Due(2, at, base) {
		seqs = append(seqs, v.Seq)
	}
	return seqs
}

// A Vm is overdue only once it is older than the seed gap — base, or
// twice the ack-RTT EWMA once that is longer — so a sweep over a
// channel whose acks come back in time resends nothing.
func TestOverdueByAge(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	const base = 10 * time.Millisecond
	v1 := created(m, "a")
	clock.Advance(base - time.Millisecond)
	if d := dueSeqs(m, clock.Now(), base); len(d) != 0 {
		t.Errorf("Vm younger than base due: %v", d)
	}
	v2 := created(m, "b")
	clock.Advance(time.Millisecond)
	if d := dueSeqs(m, clock.Now(), base); !slices.Equal(d, []uint64{v1.Seq}) {
		t.Errorf("at base: due = %v, want only seq %d", d, v1.Seq)
	}
	if d := m.Due(3, clock.Now(), base); len(d) != 0 {
		t.Errorf("unknown peer due = %+v", d)
	}

	// v1's ack, 20ms after its send, seeds the EWMA (and resets the
	// pacing): now only Vm at least 40ms old are due.
	clock.Advance(10 * time.Millisecond)
	m.OnAck(2, v1.Seq)
	if d := dueSeqs(m, clock.Now(), base); len(d) != 0 {
		t.Errorf("11ms-old Vm due under a 40ms seed gap: %v", d)
	}
	clock.Advance(28 * time.Millisecond)
	if d := dueSeqs(m, clock.Now(), base); len(d) != 0 {
		t.Errorf("39ms-old Vm due under a 40ms seed gap: %v", d)
	}
	clock.Advance(time.Millisecond)
	if d := dueSeqs(m, clock.Now(), base); !slices.Equal(d, []uint64{v2.Seq}) {
		t.Errorf("40ms-old Vm: due = %v, want [%d]", d, v2.Seq)
	}
}

func TestInboundExactlyOnce(t *testing.T) {
	m := NewManager()
	if !m.ShouldAccept(1, 1) {
		t.Fatal("fresh seq must be acceptable")
	}
	m.MarkAccepted(1, 1)
	if m.ShouldAccept(1, 1) {
		t.Fatal("duplicate must be rejected")
	}
	if !m.Accepted(1, 1) {
		t.Fatal("Accepted(1,1) should be true")
	}
	if m.AckFor(1) != 1 {
		t.Errorf("AckFor = %d", m.AckFor(1))
	}
}

func TestInboundOutOfOrder(t *testing.T) {
	m := NewManager()
	m.MarkAccepted(1, 3) // gap: 1,2 missing
	if m.AckFor(1) != 0 {
		t.Errorf("cumulative ack must not cover gaps: %d", m.AckFor(1))
	}
	if m.ShouldAccept(1, 3) {
		t.Error("3 already accepted")
	}
	if !m.ShouldAccept(1, 1) || !m.ShouldAccept(1, 2) {
		t.Error("1,2 still acceptable")
	}
	m.MarkAccepted(1, 1)
	if m.AckFor(1) != 1 {
		t.Errorf("AckFor = %d, want 1", m.AckFor(1))
	}
	m.MarkAccepted(1, 2)
	// Low-water mark drains the contiguous run through 3.
	if m.AckFor(1) != 3 {
		t.Errorf("AckFor = %d, want 3", m.AckFor(1))
	}
}

func TestInboundPerPeerIndependence(t *testing.T) {
	m := NewManager()
	m.MarkAccepted(1, 1)
	if m.Accepted(2, 1) {
		t.Error("acceptance leaked across peers")
	}
	if m.AckFor(2) != 0 {
		t.Error("ack leaked across peers")
	}
}

func TestMarkAcceptedIdempotent(t *testing.T) {
	m := NewManager()
	m.MarkAccepted(1, 1)
	m.MarkAccepted(1, 1)
	m.MarkAccepted(1, 2)
	if m.AckFor(1) != 2 {
		t.Errorf("AckFor = %d", m.AckFor(1))
	}
}

func TestSnapshotRestoreChannels(t *testing.T) {
	m := NewManager()
	// Build some state: two created toward peer 2, one acked;
	// inbound from peer 3 with a gap.
	s1 := m.AllocSeq(2)
	s2 := m.AllocSeq(2)
	m.Created([]wal.VmOut{
		{To: 2, Seq: s1, Item: "a", Amount: 5},
		{To: 2, Seq: s2, Item: "a", Amount: 3},
	})
	m.OnAck(2, 1)
	m.MarkAccepted(3, 1)
	m.MarkAccepted(3, 3) // gap at 2

	snap := m.SnapshotChannels()

	m2 := NewManager()
	m2.RestoreChannels(snap)
	if m2.OutSeq(2) != 2 || m2.CumAck(2) != 1 {
		t.Errorf("out cursors: seq=%d ack=%d", m2.OutSeq(2), m2.CumAck(2))
	}
	if p := m2.PendingTo(2); len(p) != 1 || p[0].Seq != 2 || p[0].Amount != 3 {
		t.Errorf("pending = %+v", p)
	}
	if m2.AckFor(3) != 1 {
		t.Errorf("AckFor(3) = %d", m2.AckFor(3))
	}
	if m2.ShouldAccept(3, 3) {
		t.Error("restored manager re-accepts seq 3 (double credit!)")
	}
	if !m2.ShouldAccept(3, 2) {
		t.Error("gap seq 2 must remain acceptable")
	}
	// Filling the gap drains through the sparse tail.
	m2.MarkAccepted(3, 2)
	if m2.AckFor(3) != 3 {
		t.Errorf("AckFor(3) after gap fill = %d", m2.AckFor(3))
	}
	// Allocation continues past the restored cursor.
	if m2.AllocSeq(2) != 3 {
		t.Error("restored cursor not honored by AllocSeq")
	}
	// Restore never regresses.
	m2.RestoreChannels([]wal.VmChannelState{{Peer: 2, OutSeq: 1, CumAck: 0}})
	if m2.OutSeq(2) != 3 || m2.CumAck(2) != 1 {
		t.Error("RestoreChannels regressed state")
	}
}

// Property: any interleaving of deliveries (with duplicates, loss,
// reorder) yields each seq accepted exactly once, and the cumulative
// ack equals the longest contiguous accepted prefix.
func TestChannelPropertyRandomSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		const n = 40
		accepted := make(map[uint64]int)
		// Deliver seqs 1..n in a random multiset order with dups.
		var deliveries []uint64
		for seq := uint64(1); seq <= n; seq++ {
			copies := 1 + rng.Intn(3)
			for c := 0; c < copies; c++ {
				deliveries = append(deliveries, seq)
			}
		}
		rng.Shuffle(len(deliveries), func(i, j int) {
			deliveries[i], deliveries[j] = deliveries[j], deliveries[i]
		})
		for _, seq := range deliveries {
			if m.ShouldAccept(9, seq) {
				m.MarkAccepted(9, seq)
				accepted[seq]++
			}
		}
		for seq := uint64(1); seq <= n; seq++ {
			if accepted[seq] != 1 {
				return false
			}
		}
		return m.AckFor(9) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentChannelUse(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	// Sender side: allocate + create + ack concurrently with the
	// receiver side accepting. Race detector is the assertion.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			seq := m.AllocSeq(2)
			m.Created([]wal.VmOut{{To: 2, Seq: seq, Item: "a", Amount: 1}})
			if i%3 == 0 {
				m.OnAck(2, seq)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= 500; i++ {
			if m.ShouldAccept(7, i) {
				m.MarkAccepted(7, i)
			}
			_ = m.AckFor(7)
			_ = m.PendingAll()
		}
	}()
	// The sending path carries the receiver's cursor meanwhile, and the
	// tick asks which peers it has not reached.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = m.CarryAck(7)
			_ = m.Uncarried()
		}
	}()
	wg.Wait()
}

// --- adaptive retransmission pacing -----------------------------------------

// TestDueBacksOffAndCaps walks the pacing state machine on a virtual
// clock: the first sweep fires once the Vm is old enough, each fired
// sweep doubles the gap, the gap caps at RetransmitCap × base, and
// ticks that land inside a gap resend nothing.
func TestDueBacksOffAndCaps(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	const base = 10 * time.Millisecond
	v := created(m, "a")
	t0 := clock.Now().Add(base) // the Vm is old enough from here on
	steps := []struct {
		at   time.Duration
		want bool
	}{
		{0, true}, // first sweep: immediate, gap -> 10ms
		{5 * time.Millisecond, false},
		{10 * time.Millisecond, true}, // gap -> 20ms
		{25 * time.Millisecond, false},
		{30 * time.Millisecond, true}, // gap -> 40ms
		{69 * time.Millisecond, false},
		{70 * time.Millisecond, true}, // gap -> 80ms (cap)
		{149 * time.Millisecond, false},
		{150 * time.Millisecond, true}, // gap stays 80ms
		{229 * time.Millisecond, false},
		{230 * time.Millisecond, true},
	}
	for i, s := range steps {
		d := dueSeqs(m, t0.Add(s.at), base)
		if fired := len(d) > 0; fired != s.want {
			t.Fatalf("step %d (t+%v): due = %v, want fired=%v", i, s.at, d, s.want)
		}
		if s.want && !slices.Equal(d, []uint64{v.Seq}) {
			t.Fatalf("step %d (t+%v): due = %v, want [%d]", i, s.at, d, v.Seq)
		}
	}
	if n := m.Sweeps(2); n != 6 {
		t.Errorf("Sweeps = %d, want 6", n)
	}
}

// TestDueNoPending: a sweep with nothing to resend — no channel,
// everything acked, or nothing old enough yet — neither fires nor
// backs off.
func TestDueNoPending(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	const base = time.Millisecond
	if d := m.Due(2, clock.Now(), base); len(d) != 0 {
		t.Errorf("sweep resent %+v on a channel never used", d)
	}
	v := created(m, "a")
	m.OnAck(2, v.Seq)
	if d := m.Due(2, clock.Now().Add(time.Hour), base); len(d) != 0 {
		t.Errorf("sweep resent %+v after everything was acked", d)
	}
	v = created(m, "b")
	if d := m.Due(2, clock.Now().Add(base-1), base); len(d) != 0 {
		t.Errorf("sweep resent %+v younger than base", d)
	}
	if n := m.Sweeps(2); n != 0 {
		t.Errorf("Sweeps = %d with nothing resent, want 0", n)
	}
	// No backoff was taken: the first sweep with something old enough
	// fires.
	if d := dueSeqs(m, clock.Now().Add(base), base); !slices.Equal(d, []uint64{v.Seq}) {
		t.Errorf("first sweep past base: due = %v, want [%d]", d, v.Seq)
	}
}

// TestAckResetsRetransmitBackoff: a peer deep in backoff snaps back to
// immediate retransmission the moment a cumulative ack advances the
// channel — a heal must not wait out the cap.
func TestAckResetsRetransmitBackoff(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock) // stays put: every ack measures a zero round trip
	const base = 10 * time.Millisecond
	s1 := created(m, "a").Seq
	s2 := created(m, "a").Seq
	t0 := clock.Now().Add(base)
	fires := func(d time.Duration) bool { return len(m.Due(2, t0.Add(d*time.Millisecond), base)) > 0 }
	// Drive the gap to the cap.
	for _, d := range []time.Duration{0, 10, 30, 70} {
		if !fires(d) {
			t.Fatalf("sweep at t+%vms should fire", d)
		}
	}
	// Next sweep would be 80ms out; the ack arrives first.
	m.OnAck(2, s1)
	if got := dueSeqs(m, t0.Add(71*time.Millisecond), base); !slices.Equal(got, []uint64{s2}) {
		t.Errorf("sweep after an advancing ack: due = %v, want [%d] at once", got, s2)
	}
	// Stale ack (no advance) must NOT reset.
	for _, d := range []time.Duration{81, 101} { // gap is re-seeded at base
		fires(d)
	}
	m.OnAck(2, s1) // duplicate, upTo == cumAck
	if fires(102) {
		t.Error("duplicate ack reset the backoff")
	}
}

// TestAckRTTEWMA: the smoothed round trip (α = 0.2) tracks observed
// acks without requiring instrumentation (no registry attached), and
// Due reads it: the seed gap is max(base, 2×EWMA), both as the age a
// Vm must reach and as the first pacing gap.
func TestAckRTTEWMA(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	const base = time.Millisecond
	ms := time.Millisecond
	// dueFrom checks that a sweep at sent+gap-1ns resends nothing and
	// one at sent+gap resends exactly want.
	dueFrom := func(sent time.Time, gap time.Duration, want uint64) {
		t.Helper()
		if d := dueSeqs(m, sent.Add(gap-1), base); len(d) != 0 {
			t.Errorf("due %v before the %v seed gap", d, gap)
		}
		if d := dueSeqs(m, sent.Add(gap), base); !slices.Equal(d, []uint64{want}) {
			t.Errorf("at the %v seed gap: due = %v, want [%d]", gap, d, want)
		}
	}

	// Before the first ack the seed gap is base.
	v1 := created(m, "a")
	dueFrom(clock.Now(), base, v1.Seq)

	// A 2ms round trip seeds the EWMA: the seed gap is 4ms.
	clock.Advance(2 * ms)
	m.OnAck(2, v1.Seq)
	v2 := created(m, "a")
	sent := clock.Now()
	dueFrom(sent, 4*ms, v2.Seq)
	// The pacing gap after that sweep is the seed gap too.
	if d := m.Due(2, sent.Add(8*ms-1), base); len(d) != 0 {
		t.Errorf("sweep inside the 2×RTT pacing gap resent %+v", d)
	}
	if d := m.Due(2, sent.Add(8*ms), base); len(d) != 1 {
		t.Errorf("sweep past the 2×RTT pacing gap: due = %+v", d)
	}

	// A 12ms round trip moves the EWMA a fifth of the way: 4ms, so the
	// seed gap is 8ms.
	clock.Advance(12 * ms)
	m.OnAck(2, v2.Seq)
	v3 := created(m, "a")
	dueFrom(clock.Now(), 8*ms, v3.Seq)
}

// TestResetClearsRetxState: crash recovery rebuilds channels from the
// log; pacing state must not survive the crash, and a Vm restored from
// a checkpoint has no send instant, so the first sweep resends it.
func TestResetClearsRetxState(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	const base = 10 * time.Millisecond
	v := created(m, "a")
	t0 := clock.Now()
	if d := m.Due(2, t0.Add(base), base); len(d) != 1 { // next sweep at t0+20ms
		t.Fatalf("first sweep: due = %+v", d)
	}
	m.Reset()
	m.RestoreChannels([]wal.VmChannelState{{Peer: 2, OutSeq: v.Seq, Pending: []wal.VmOut{v}}})
	if d := dueSeqs(m, t0.Add(time.Millisecond), base); !slices.Equal(d, []uint64{v.Seq}) {
		t.Errorf("restored channel: due = %v, want [%d] at once", d, v.Seq)
	}
	if n := m.Sweeps(2); n != 1 {
		t.Errorf("Sweeps after Reset = %d, want 1", n)
	}
}

// The ackable cursor trails the dedup set: a credited Vm is a
// duplicate at once, and acknowledged only once marked stable — over a
// contiguous stable run, whatever order the marks arrive in.
func TestAckCursorTrailsAppliedSet(t *testing.T) {
	m := NewManager()
	m.MarkApplied(1, 1)
	m.MarkApplied(1, 2)
	if m.ShouldAccept(1, 1) || m.ShouldAccept(1, 2) || !m.Accepted(1, 2) {
		t.Error("an applied seq must be a duplicate from then on")
	}
	if m.AckFor(1) != 0 {
		t.Errorf("AckFor = %d with nothing stable", m.AckFor(1))
	}
	m.MarkStable(1, 2) // out of order: 1 is not stable yet
	if m.AckFor(1) != 0 {
		t.Errorf("AckFor = %d across an unstable gap", m.AckFor(1))
	}
	m.MarkStable(1, 1)
	m.MarkStable(1, 1) // idempotent
	if m.AckFor(1) != 2 {
		t.Errorf("AckFor = %d, want 2", m.AckFor(1))
	}

	// A checkpoint lists the applied set — by the time it is read back
	// every acceptance it lists is stable — and restores both cursors.
	m.MarkApplied(1, 3)
	m.MarkApplied(1, 5)
	m2 := NewManager()
	m2.MarkStable(1, 4) // a stray tail entry the raised low must absorb
	m2.MarkApplied(1, 4)
	m2.RestoreChannels(m.SnapshotChannels())
	if m2.AckFor(1) != 5 {
		t.Errorf("restored AckFor = %d, want 5", m2.AckFor(1))
	}
	if m2.ShouldAccept(1, 5) || !m2.ShouldAccept(1, 6) {
		t.Error("restored dedup set does not match the snapshot")
	}
}

// A Vm acknowledged only at the heal of a 10 s outage feeds its whole
// lifespan into the ack-RTT EWMA, which a first sample takes outright.
// The next Vm, lost on the healed link, is still resent within
// RetransmitCap × base of its send — the sweep gap's cap — not twice
// the outage later.
func TestDueSeedCappedAfterOutage(t *testing.T) {
	m := NewManager()
	clock := vclock.NewVirtual(time.Unix(1000, 0))
	m.SetClock(clock)
	const base = 15 * time.Millisecond
	v1 := created(m, "a")
	clock.Advance(10 * time.Second)
	m.OnAck(2, v1.Seq)
	v2 := created(m, "a")
	sent := clock.Now()
	if d := dueSeqs(m, sent.Add(RetransmitCap*base-1), base); len(d) != 0 {
		t.Errorf("resent %v inside the capped seed gap", d)
	}
	if d := dueSeqs(m, sent.Add(RetransmitCap*base), base); !slices.Equal(d, []uint64{v2.Seq}) {
		t.Errorf("at RetransmitCap × base after the send: due = %v, want [%d]", d, v2.Seq)
	}
}

// The carried cursor: a peer is owed a standalone ack (Uncarried) only
// while its cumulative ack is ahead of the highest one an envelope has
// carried to it (CarryAck). A cursor stuck behind a gap owes nothing,
// and Reset forgets what was carried along with the rest.
func TestCarryAck(t *testing.T) {
	m := NewManager()
	if got := m.CarryAck(1); got != 0 || len(m.Uncarried()) != 0 {
		t.Fatalf("fresh manager: CarryAck = %d, Uncarried = %v", got, m.Uncarried())
	}
	m.MarkAccepted(3, 1)
	m.MarkAccepted(1, 1)
	m.MarkAccepted(1, 3) // behind a gap: not ackable yet
	if got := m.Uncarried(); !slices.Equal(got, []ident.SiteID{1, 3}) {
		t.Fatalf("Uncarried = %v, want [1 3] in canonical order", got)
	}
	if got := m.CarryAck(1); got != 1 {
		t.Fatalf("CarryAck(1) = %d, want 1", got)
	}
	if got := m.Uncarried(); !slices.Equal(got, []ident.SiteID{3}) {
		t.Fatalf("Uncarried after carrying peer 1's ack = %v, want [3]", got)
	}
	m.MarkAccepted(1, 2) // fills the gap: the cursor moves to 3
	if got := m.Uncarried(); !slices.Equal(got, []ident.SiteID{1, 3}) {
		t.Fatalf("Uncarried after peer 1's cursor moved = %v, want [1 3]", got)
	}
	if got := m.CarryAck(1); got != 3 || m.AckFor(1) != 3 {
		t.Fatalf("CarryAck(1) = %d, AckFor(1) = %d, want 3 and 3", got, m.AckFor(1))
	}
	m.CarryAck(3)
	if got := m.Uncarried(); len(got) != 0 {
		t.Fatalf("Uncarried with every cursor carried = %v", got)
	}
	m.Reset()
	m.RestoreChannels([]wal.VmChannelState{{Peer: 1, InLow: 3}})
	if got := m.Uncarried(); !slices.Equal(got, []ident.SiteID{1}) {
		t.Fatalf("Uncarried after a restart = %v, want [1]: no envelope has carried the restored cursor", got)
	}
}
