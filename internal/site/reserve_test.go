package site

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/simnet"
	"dvp/internal/tstamp"
	"dvp/internal/vclock"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// envelopeStamps lists every timestamp an envelope carries: its clock
// and each stamp its message names.
func envelopeStamps(env *wire.Envelope) []tstamp.TS {
	ts := []tstamp.TS{env.Lamport}
	vm := func(v *wire.Vm) { ts = append(ts, v.ReqTxn, v.Trace.TS) }
	switch m := env.Msg.(type) {
	case *wire.Request:
		ts = append(ts, m.Txn, m.Trace.TS)
	case *wire.NoShare:
		ts = append(ts, m.Txn)
	case *wire.Vm:
		vm(m)
	case *wire.VmBatch:
		for i := range m.Vms {
			vm(&m.Vms[i])
		}
	}
	return ts
}

// recordStamps lists every timestamp a record holds, and the clock
// reservation it makes (0 if none).
func recordStamps(r wal.Record) (ts []tstamp.TS, reserves uint64, err error) {
	actions := func(as []wal.Action) {
		for _, a := range as {
			ts = append(ts, a.SetTS)
		}
	}
	switch r.Kind {
	case wal.RecCommit:
		rec, err := wal.DecodeCommit(r.Data)
		if err != nil {
			return nil, 0, err
		}
		ts = append(ts, rec.Txn)
		actions(rec.Actions)
	case wal.RecVmCreate:
		rec, err := wal.DecodeVmCreate(r.Data)
		if err != nil {
			return nil, 0, err
		}
		actions(rec.Actions)
		for _, v := range rec.Msgs {
			ts = append(ts, v.ReqTxn)
		}
	case wal.RecVmAccept:
		rec, err := wal.DecodeVmAccept(r.Data)
		if err != nil {
			return nil, 0, err
		}
		actions(rec.Actions)
	case wal.RecCheckpoint:
		rec, err := wal.DecodeCheckpoint(r.Data)
		if err != nil {
			return nil, 0, err
		}
		return nil, rec.Clock, nil
	case wal.RecClock:
		rec, err := wal.DecodeClock(r.Data)
		if err != nil {
			return nil, 0, err
		}
		return nil, rec.Bound, nil
	}
	return ts, 0, nil
}

// stampsCovered fails the test if a record of log holds a stamp above
// every reservation logged before it or by it: a record is stable only
// once everything below it is, so its stamps must not outrun the
// reservations a restart would find beside it.
func stampsCovered(t *testing.T, site ident.SiteID, log wal.Log) {
	t.Helper()
	var bound uint64
	if err := log.Scan(1, func(r wal.Record) error {
		ts, b, err := recordStamps(r)
		if err != nil {
			return err
		}
		bound = max(bound, b)
		for _, x := range ts {
			if x.Counter() > bound {
				t.Errorf("site %v: %v record at LSN %d holds stamp %v above the reservation %d", site, r.Kind, r.LSN, x, bound)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// No counter above a site's stable reservation leaves it, on the wire
// or in its log. Three sites run writes that shortfall, full reads,
// transfers into free items and checkpoints, while each site's clock is
// pushed to its reservation again and again, so that every kind of
// stamp — a transaction's draw, an observed clock, an acceptance's draw
// under its stripe — keeps crossing it. Every envelope is checked as it
// leaves against its sender's stable reservation; every log, at the
// end, against the reservations it holds below each record; and no log
// holds a Vm with nothing to carry.
func TestNoStampAboveTheReservation(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 71}, func(i int, c *Config) {
		c.DefaultTimeout = 50 * time.Millisecond
	})
	tc.net.SetTap(func(from, _ ident.SiteID, _ wire.Kind, frame []byte) {
		env, err := wire.Unmarshal(frame)
		if err != nil {
			t.Errorf("site %v sent an undecodable frame: %v", from, err)
			return
		}
		bound := tc.sites[from-1].lamport.Bound()
		for _, x := range envelopeStamps(env) {
			if x.Counter() > bound {
				t.Errorf("site %v sent %v carrying stamp %v above its reservation %d", from, env.Msg.Kind(), x, bound)
			}
		}
	})
	items := []ident.ItemID{"a", "b", "c", "d"}
	for _, item := range items {
		tc.createItem(item, 60)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // push clocks to their reservations
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(1+rng.Intn(3)) * time.Millisecond):
			}
			s := tc.sites[rng.Intn(len(tc.sites))]
			s.lamport.Restore(s.lamport.Bound())
		}
	}()
	var work sync.WaitGroup
	for w, s := range tc.sites {
		work.Add(1)
		go func() {
			defer work.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			for i := 0; i < 30; i++ {
				item := items[rng.Intn(len(items))]
				switch rng.Intn(5) {
				case 0:
					s.Run(readItem(item))
				case 1:
					s.Run(reserve(item, core.Value(5+rng.Intn(20))))
				case 2:
					s.Run(cancel(item, core.Value(1+rng.Intn(5))))
				case 3:
					_ = s.SendValue(item, tc.sites[(w+1)%len(tc.sites)].ID(), 1)
				default:
					if rng.Intn(4) == 0 {
						_ = s.Checkpoint()
					} else {
						s.Run(reserve(item, 1))
					}
				}
			}
		}()
	}
	work.Wait()
	close(stop)
	wg.Wait()
	for _, item := range items {
		tc.waitQuiescent(item, 5*time.Second)
	}
	for i, s := range tc.sites {
		stampsCovered(t, s.ID(), tc.logs[i])
		noEmptyVm(t, s.ID(), tc.logs[i])
	}
}

// A reservation claimed after a checkpoint's cut read the clock may
// have logged its record below the checkpoint, where the compaction
// behind it would drop it: the checkpoint logs it again above itself
// before it compacts. The claim is made here as the checkpoint record
// is appended — after the cut — and once the checkpoint returns, the
// log holds the bound above it and a restart resumes there.
func TestCheckpointRelogsARacingReservation(t *testing.T) {
	tc := newTestCluster(t, 1, simnet.Config{Seed: 72}, nil)
	s := tc.sites[0]
	tc.createItem("x", 10)
	if res := s.Run(reserve("x", 1)); !res.Committed() {
		t.Fatal(res.Status)
	}
	raced := s.lamport.Bound() + 5*tstamp.Stride
	var once sync.Once
	tc.logs[0].SetAppendHook(func(r wal.Record) error {
		if r.Kind == wal.RecCheckpoint {
			once.Do(func() { s.lamport.Claim(raced - tstamp.Stride) })
		}
		return nil
	})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var cpLSN, relogLSN uint64
	first := uint64(0)
	if err := tc.logs[0].Scan(1, func(r wal.Record) error {
		if first == 0 {
			first = r.LSN
		}
		switch r.Kind {
		case wal.RecCheckpoint:
			cpLSN = r.LSN
		case wal.RecClock:
			if rec, err := wal.DecodeClock(r.Data); err == nil && rec.Bound == raced {
				relogLSN = r.LSN
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cpLSN == 0 || first != cpLSN || relogLSN <= cpLSN {
		t.Fatalf("log from LSN %d: checkpoint at %d, reservation %d at %d; want it logged again above the checkpoint, and the rest compacted",
			first, cpLSN, raced, relogLSN)
	}
	_, _, sum, err := recovery.Rebuild(tc.logs[0], s.ID())
	if err != nil || sum.CheckpointLSN != cpLSN {
		t.Fatalf("rebuild: %v from checkpoint %d", err, sum.CheckpointLSN)
	}
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if ts := stampAt(s, "x"); ts.Counter() < raced {
		t.Errorf("x stamped %v after the restart, below the raced reservation %d", ts, raced)
	}
	if res := s.Run(reserve("x", 1)); !res.Committed() || res.TS.Counter() <= raced {
		t.Errorf("first transaction after the restart: %v at %v, want committed above %d", res.Status, res.TS, raced)
	}
}

// The clock reservation in numbers: Start reserves past the recovered
// clock, a draw reserves once per Stride, and a restart resumes at the
// highest reservation the log holds.
func TestReservationStride(t *testing.T) {
	tc := newTestCluster(t, 1, simnet.Config{Seed: 73}, nil)
	s := tc.sites[0]
	tc.createItem("x", 1000)
	reservations := func() (n int, high uint64) {
		if err := tc.logs[0].Scan(1, func(r wal.Record) error {
			if r.Kind == wal.RecClock {
				rec, err := wal.DecodeClock(r.Data)
				if err != nil {
					return err
				}
				n, high = n+1, max(high, rec.Bound)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n, high
	}
	if n, high := reservations(); n != 1 || high != 1+tstamp.Stride || s.lamport.Bound() != high {
		t.Fatalf("after Start: %d reservation(s) up to %d, clock's %d; want 1 up to %d", n, high, s.lamport.Bound(), 1+tstamp.Stride)
	}
	for i := 0; i < 3; i++ {
		s.lamport.Restore(s.lamport.Bound() - 1)
		for k := 0; k < 2; k++ { // the second draw crosses
			if res := s.Run(reserve("x", 1)); !res.Committed() {
				t.Fatal(res.Status)
			}
		}
	}
	n, high := reservations()
	if n != 4 || high != s.lamport.Bound() {
		t.Fatalf("after three crossings: %d reservations up to %d, clock's %d; want 4", n, high, s.lamport.Bound())
	}
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := s.LastRecovery(); got.RecordsScanned == 0 {
		t.Fatal("restart scanned nothing")
	}
	if res := s.Run(reserve("x", 1)); !res.Committed() || res.TS.Counter() <= high {
		t.Errorf("after the restart: %v at %v, want above the reservation %d", res.Status, res.TS, high)
	}
	if n2, high2 := reservations(); n2 != n+1 || high2 != high+1+tstamp.Stride {
		t.Errorf("the restart logged %d reservation(s) up to %d, want one up to %d", n2-n, high2, high+1+tstamp.Stride)
	}
}

// The one draw made under a stripe, an acceptance's, waits for no
// force: when it crosses the reservation, the reservation is queued
// ahead of the acceptance record and both ride the next force. Until
// then the clock has run past the stable bound, and every envelope the
// site sends carries the bound instead (a handler reserves before it
// runs, anything else sends capped); once the force lands and the
// acceptance settles, the bound covers the acceptance's stamp.
func TestAcceptanceQueuesItsReservation(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0)) // no retransmission tick forces anything
	tc, gl := groupedCluster(t, 74, wal.NewMemLog(), func(c *Config) { c.Clock = clock })
	s := tc.sites[0]
	item := ident.ItemID("flight/Q")
	place(t, s, item, 0)
	var sent []tstamp.TS
	var mu sync.Mutex
	tc.net.SetTap(func(from, _ ident.SiteID, _ wire.Kind, frame []byte) {
		if env, err := wire.Unmarshal(frame); err == nil && from == 1 {
			mu.Lock()
			sent = append(sent, env.Lamport)
			mu.Unlock()
		}
	})
	bound := s.lamport.Bound()
	s.lamport.Restore(bound)
	base := gl.LastLSN()
	s.handle(&wire.Envelope{From: 2, To: 1, Msg: &wire.Vm{Seq: 1, Item: item, Amount: 4}})
	if n := gl.Waiters(); n != 2 || s.lamport.Current() != bound+1 || s.lamport.Bound() != bound {
		t.Fatalf("acceptance crossing the reservation: %d record(s) queued, clock %d, bound %d; want 2, %d, %d",
			n, gl.Waiters(), s.lamport.Bound(), bound+1, bound)
	}
	// A send from outside a handler — a retransmission sweep's, an
	// advert's — reserves nothing first.
	s.send(2, &wire.VmAck{})
	tc.settle()
	mu.Lock()
	if len(sent) != 1 || sent[0].Counter() != bound {
		t.Errorf("site 1 sent clocks %v with its reservation unforced, want one at the bound %d", sent, bound)
	}
	mu.Unlock()

	s.forceAccepts()
	recs := countRecords(t, gl, base+1)
	if recs[wal.RecClock] != 1 || recs[wal.RecVmAccept] != 1 || gl.LastLSN() != base+2 {
		t.Fatalf("after the force the log holds %v past LSN %d, want a reservation and the acceptance", recs, base)
	}
	var first wal.RecordKind
	if err := gl.Scan(base+1, func(r wal.Record) error {
		if first == 0 {
			first = r.Kind
		}
		return nil
	}); err != nil || first != wal.RecClock {
		t.Errorf("first record past the placement: %v, %v; want the reservation ahead of the acceptance", first, err)
	}
	if b := s.lamport.Bound(); b != bound+1+tstamp.Stride {
		t.Errorf("bound %d once the acceptance settled, want %d", b, bound+1+tstamp.Stride)
	}
	stampsCovered(t, 1, gl)
}
