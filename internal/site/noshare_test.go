package site

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// kindTap counts the envelopes of each kind each site puts on the wire.
type kindTap struct {
	n [4][wire.KNoShare + 1]atomic.Int64 // [from][kind], sites 1–3
}

func (k *kindTap) install(net *simnet.Net) {
	net.SetTap(func(from, _ ident.SiteID, kind wire.Kind, _ []byte) {
		if int(from) < len(k.n) && int(kind) < len(k.n[0]) {
			k.n[from][kind].Add(1)
		}
	})
}

func (k *kindTap) sent(from ident.SiteID, kind wire.Kind) int64 { return k.n[from][kind].Load() }

// donorCluster is a 2-site cluster and the group log of its site 2,
// the donor, so a test can hold or fail the donor's force. Site 1
// holds 10 of item, site 2 holds 3, and site 1's clock runs ahead, so
// that its reads are admitted at site 2 whatever site 2 stamped.
func donorCluster(t *testing.T, seed int64, item ident.ItemID) (*testCluster, *wal.GroupLog, *kindTap) {
	t.Helper()
	tc := newTestCluster(t, 2, simnet.Config{Seed: seed}, nil)
	place(t, tc.sites[0], item, 10)
	place(t, tc.sites[1], item, 3)
	tc.sites[0].lamport.Restore(100)
	tap := new(kindTap)
	tap.install(tc.net)
	return tc, tc.sites[1].Log().(*wal.GroupLog), tap
}

// A donor that holds none of an item answers a full read with NoShare,
// logging nothing — but not before the log is stable up to the last
// record applied to the item. Here site 2's own write took the item to
// 0 and its force is held open: the read is not answered, and site 1
// does not commit, until the force lands. Then the read commits with
// what site 1 holds, and neither site logged anything for it.
func TestNoShareWaitsForTheFence(t *testing.T) {
	item := ident.ItemID("flight/B")
	tc, gl, tap := donorCluster(t, 22, item)
	entered, release := holdFirstFlush(gl)
	defer release()

	wrote := make(chan *txn.Result, 1)
	go func() { wrote <- tc.sites[1].Run(reserve(item, 3)) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("site 2's write never reached its force")
	}
	logged := [2]uint64{tc.logs[0].LastLSN(), gl.LastLSN()}

	read := make(chan *txn.Result, 1)
	go func() {
		read <- tc.sites[0].Run(&txn.Txn{Reads: []ident.ItemID{item}, Timeout: 5 * time.Second})
	}()
	waitUntil(t, 2*time.Second, "site 2 took the request", func() bool { return tookRequest(tc.sites[1]) })
	time.Sleep(20 * time.Millisecond)
	if n := tap.sent(2, wire.KNoShare); n != 0 {
		t.Fatalf("site 2 answered %d time(s) with its write unforced", n)
	}
	select {
	case res := <-read:
		t.Fatalf("full read returned %v before the donor's record was stable", res.Status)
	default:
	}

	release()
	if res := <-wrote; !res.Committed() {
		t.Fatalf("site 2's write: %v", res.Status)
	}
	res := <-read
	if !res.Committed() || res.Reads[item] != 10 {
		t.Fatalf("full read: %v, read %d, want committed and 10", res.Status, res.Reads[item])
	}
	if n := tap.sent(2, wire.KNoShare); n != 1 {
		t.Errorf("site 2 sent %d NoShare, want 1", n)
	}
	if tap.sent(2, wire.KVm)+tap.sent(2, wire.KVmBatch) != 0 {
		t.Error("site 2 sent a Vm with nothing to carry")
	}
	tc.settle()
	if got := [2]uint64{tc.logs[0].LastLSN(), gl.LastLSN()}; got[0] != logged[0] || got[1] != logged[1]+1 {
		t.Errorf("logs grew %d → %d at site 1, %d → %d at site 2; want no record but site 2's write",
			logged[0], got[0], logged[1], got[1])
	}
}

// tookRequest reports whether the donor has observed the clock of
// donorCluster's reader, which runs ahead of it: the reader's request
// has reached the donor's handler.
func tookRequest(s *Site) bool { return s.lamport.Current() > 100 }

// A crash before the force means no answer went out. Site 2's write
// takes the item to 0 and its force fails: the read's fence fails with
// it, site 2 stops without a NoShare on the wire, and the read times
// out rather than report a total its donor's log never held. Once site
// 2 restarts, its share is back, and a read gathers all of it: the
// restart floored site 2's stamps at its reservation, far past site 1's
// clock, and its start acked site 1, carrying its clock there, so site
// 1's next read is admitted.
func TestNoShareLostWithItsFence(t *testing.T) {
	item := ident.ItemID("flight/B")
	tc, gl, tap := donorCluster(t, 23, item)
	inner := tc.logs[1]
	gate := make(chan struct{})
	inner.SetAppendHook(func(wal.Record) error {
		<-gate
		return errors.New("disk full")
	})

	wrote := make(chan *txn.Result, 1)
	go func() { wrote <- tc.sites[1].Run(reserve(item, 3)) }()
	waitUntil(t, 2*time.Second, "site 2's write in its force", func() bool { return gl.Waiters() == 1 })
	read := make(chan *txn.Result, 1)
	go func() {
		read <- tc.sites[0].Run(&txn.Txn{Reads: []ident.ItemID{item}, Timeout: 300 * time.Millisecond})
	}()
	waitUntil(t, 2*time.Second, "site 2 took the request", func() bool { return tookRequest(tc.sites[1]) })
	time.Sleep(20 * time.Millisecond)
	close(gate)

	if res := <-wrote; res.Committed() {
		t.Fatal("site 2's write committed over a failed force")
	}
	if res := <-read; res.Status != txn.StatusTimeout {
		t.Fatalf("full read: %v, read %d; want a timeout", res.Status, res.Reads[item])
	}
	if n := tap.sent(2, wire.KNoShare); n != 0 {
		t.Errorf("site 2 sent %d NoShare over a fence that never became stable", n)
	}
	waitUntil(t, 2*time.Second, "site 2 down", func() bool { return !tc.sites[1].Up() })
	inner.SetAppendHook(nil)
	if err := tc.sites[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if v := tc.sites[1].DB().Value(item); v != 3 {
		t.Fatalf("site 2 holds %d after restart, want its 3 back", v)
	}
	if res := runRetry(tc.sites[0], readItem(item), 5); !res.Committed() || res.Reads[item] != 13 {
		t.Errorf("full read after the restart: %v, read %d, want committed and 13", res.Status, res.Reads[item])
	}
}

// A read that writes no record answers only once its own site's log is
// stable up to the last record applied to what it read. A Vm accepted
// into site 1's free item logs an acceptance that asks for no force;
// with site 1's flush held, the full read that observed the credit
// does not return until it is stable — and then writes nothing of its
// own.
func TestRecordlessReadWaitsForTheFence(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0)) // no retransmission tick forces the acceptance
	tc, gl := groupedCluster(t, 24, func(c *Config) { c.Clock = clock })
	item := ident.ItemID("flight/R")
	place(t, tc.sites[0], item, 10)
	place(t, tc.sites[1], item, 0)
	s := tc.sites[0]
	base := gl.LastLSN()
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 1, Item: item, Amount: 5}})
	if n := gl.Waiters(); n != 1 || s.DB().Value(item) != 15 {
		t.Fatalf("acceptance: %d record(s) queued, store %d; want 1 and 15", n, s.DB().Value(item))
	}
	entered, release := holdFirstFlush(gl)
	defer release()

	read := make(chan *txn.Result, 1)
	go func() { read <- s.Run(&txn.Txn{Reads: []ident.ItemID{item}, Timeout: time.Hour}) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the read never asked for its fence")
	}
	select {
	case res := <-read:
		t.Fatalf("full read returned %v with the credit it read unforced", res.Status)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	res := <-read
	if !res.Committed() || res.Reads[item] != 15 {
		t.Fatalf("full read: %v, read %d, want committed and 15", res.Status, res.Reads[item])
	}
	if recs := countRecords(t, gl, base+1); gl.LastLSN() != base+1 || gl.Waiters() != 0 || recs[wal.RecVmAccept] != 1 {
		t.Errorf("site 1 logged %v since the acceptance was queued, want the acceptance alone", recs)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if n := len(tc.commits); n != 1 || !tc.commits[0].Recordless || tc.commits[0].CommitLSN == 0 {
		t.Errorf("hook saw %+v, want one recordless commit fenced on the acceptance", tc.commits)
	}
}

// A donor that crashes right after a NoShare declines, once restarted,
// a request stamped below the read it answered. The read's stamp is
// far above anything site 2 drew, so only the reservation site 2 logged
// on observing it — before it answered — covers it: the restart
// resumes the clock there and floors every stamp at it. The floor
// covers an item no record at site 2 names as well: never placed there,
// d is not in the store the restart rebuilds.
func TestNoShareDonorCrashDeclinesBelow(t *testing.T) {
	for _, c := range []struct {
		name   string
		shares []core.Value // d's share per site; -1 places none
	}{
		{"placed", []core.Value{10, 0, 0}},
		{"never placed", []core.Value{10, -1, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, simnet.Config{Seed: 25}, nil)
			tap := new(kindTap)
			tap.install(tc.net)
			const d = ident.ItemID("d")
			for i, q := range c.shares {
				if q >= 0 {
					place(t, tc.sites[i], d, q)
				}
			}
			tc.sites[0].lamport.Restore(3 * tstamp.Stride)
			res := tc.sites[0].Run(readItem(d))
			if !res.Committed() || res.Reads[d] != 10 {
				t.Fatalf("full read: %v, read %d, want committed and 10", res.Status, res.Reads[d])
			}
			if n := tap.sent(2, wire.KNoShare); n != 1 {
				t.Fatalf("site 2 sent %d NoShare, want 1", n)
			}
			donor := tc.sites[1]
			if b := donor.lamport.Bound(); b < res.TS.Counter() {
				t.Fatalf("site 2 answered with its reservation at %d, below the read's %v", b, res.TS)
			}
			donor.Crash()
			if err := donor.Restart(); err != nil {
				t.Fatal(err)
			}
			if _, held := donor.DB().Get(d); held != (c.shares[1] >= 0) {
				t.Fatalf("site 2's rebuilt store holds d: %v, want %v", held, c.shares[1] >= 0)
			}
			if ts := stampAt(donor, d); ts < res.TS {
				t.Errorf("site 2's d stamped %v after the restart, below the read's %v", ts, res.TS)
			}
			declined := donor.Stats().RequestsDeclined
			below := tstamp.Make(res.TS.Counter()-1, 3)
			donor.handle(&wire.Envelope{From: 3, To: 2, Lamport: below, Msg: &wire.Request{Txn: below, Item: d, FullRead: true}})
			tc.settle()
			if got := donor.Stats().RequestsDeclined; got != declined+1 {
				t.Errorf("declined %d → %d, want the request below the read declined", declined, got)
			}
			if n := tap.sent(2, wire.KNoShare); n != 1 {
				t.Errorf("site 2 answered a request stamped below the read it answered before its crash")
			}
		})
	}
}

// A stamp a donor takes from a reader can sit at the donor's
// reservation's own counter, with a site id above the donor's. Here
// site 1's reservation is B, site 3 reads at B, and site 1 answers with
// a NoShare that stamps d at (B, site 3) in d's state alone, logging no
// reservation. After site 1's crash the stamp is gone, and the floor
// must still cover it: a request stamped (B, site 2), between the two,
// is declined.
func TestNoShareDonorCrashDeclinesAtTheTie(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 26}, nil)
	tap := new(kindTap)
	tap.install(tc.net)
	const d = ident.ItemID("d")
	for i, q := range []core.Value{0, 0, 10} {
		place(t, tc.sites[i], d, q)
	}
	donor := tc.sites[0]
	b := donor.lamport.Bound()
	tc.sites[2].lamport.Restore(b - 1)
	res := tc.sites[2].Run(readItem(d))
	if !res.Committed() || res.Reads[d] != 10 || res.TS != tstamp.Make(b, 3) {
		t.Fatalf("full read: %v at %v, read %d; want committed at %v and 10", res.Status, res.TS, res.Reads[d], tstamp.Make(b, 3))
	}
	tc.settle()
	if ts := stampAt(donor, d); ts != res.TS || donor.lamport.Bound() != b {
		t.Fatalf("site 1 stamped d %v with its reservation at %d; want the read's %v and %d", ts, donor.lamport.Bound(), res.TS, b)
	}
	donor.Crash()
	if err := donor.Restart(); err != nil {
		t.Fatal(err)
	}
	if ts := stampAt(donor, d); ts < res.TS {
		t.Errorf("site 1's d stamped %v after the restart, below the read's %v", ts, res.TS)
	}
	declined, answered := donor.Stats().RequestsDeclined, tap.sent(1, wire.KNoShare)
	tie := tstamp.Make(b, 2)
	donor.handle(&wire.Envelope{From: 2, To: 1, Lamport: tie, Msg: &wire.Request{Txn: tie, Item: d, FullRead: true}})
	tc.settle()
	if got := donor.Stats().RequestsDeclined; got != declined+1 {
		t.Errorf("declined %d → %d, want the request at %v, below the read, declined", declined, got, tie)
	}
	if n := tap.sent(1, wire.KNoShare); n != answered {
		t.Errorf("site 1 answered a request stamped below the read it answered before its crash")
	}
}

// A peer that misses a restarted site's start ack loses one request,
// not a stride of them. Site 2's restart floors its stamps far past
// site 1's clock and its ack to site 1 is dropped: site 1's first read
// is declined under Conc1, the decline answers with an ack carrying
// site 2's clock, and site 1's next read is admitted.
func TestDeclineCarriesARestartedClock(t *testing.T) {
	tc := newTestCluster(t, 2, simnet.Config{Seed: 27}, nil)
	tap := new(kindTap)
	tap.install(tc.net)
	const d = ident.ItemID("d")
	place(t, tc.sites[0], d, 10)
	place(t, tc.sites[1], d, 3)
	donor := tc.sites[1]
	donor.Crash()
	tc.net.SetFilter(func(from, _ ident.SiteID, kind wire.Kind) bool { return from != 2 || kind != wire.KVmAck })
	if err := donor.Restart(); err != nil {
		t.Fatal(err)
	}
	tc.settle()
	tc.net.SetFilter(nil)
	if ts := stampAt(donor, d); tc.sites[0].lamport.Current() >= ts.Counter() {
		t.Fatalf("site 1's clock %d has seen site 2's stamp %v: the start ack was not lost", tc.sites[0].lamport.Current(), ts)
	}
	acks := tap.sent(2, wire.KVmAck)
	if res := tc.sites[0].Run(readItem(d)); res.Committed() {
		t.Fatalf("full read committed at %v, below site 2's stamps", res.TS)
	}
	tc.settle()
	if n := tap.sent(2, wire.KVmAck); n != acks+1 {
		t.Errorf("site 2 sent %d ack(s) for the declined request, want 1", n-acks)
	}
	if res := tc.sites[0].Run(readItem(d)); !res.Committed() || res.Reads[d] != 13 {
		t.Errorf("full read after one decline: %v, read %d, want committed and 13", res.Status, res.Reads[d])
	}
}
