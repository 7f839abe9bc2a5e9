package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dvp/internal/cc"
	"dvp/internal/ident"
	"dvp/internal/lock"
	"dvp/internal/recovery"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// Sinks keep probe results alive so the compiler cannot drop the calls;
// they are typed so that storing a result does not itself allocate.
var (
	sinkBytes []byte
	sinkInt   int
	sinkBool  bool
	sinkEnv   *wire.Envelope
)

// probe times n calls of fn and returns ns and heap allocations per
// call. One untimed call first lets lazy set-up finish.
func probe(n int, fn func()) (ns, allocs float64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	f := float64(n)
	return float64(elapsed) / f, float64(after.Mallocs-before.Mallocs) / f
}

// Canonical shapes: what shortfall_durable puts in the log and on the
// wire, used when the workload's own traced run produced no such
// record or message (a local workload sends nothing).
func canonicalEnvelope(kind wire.Kind) *wire.Envelope {
	env := &wire.Envelope{From: 1, To: 2, Lamport: tstamp.Make(70000, 1), AckUpTo: 41}
	switch kind {
	case wire.KRequest:
		env.Msg = &wire.Request{Txn: tstamp.Make(70000, 1), Item: "it/17", Want: 1}
	case wire.KVm:
		env.From, env.To = 2, 1
		env.Msg = &wire.Vm{Seq: 42, Item: "it/17", Amount: 1, ReqTxn: tstamp.Make(70000, 1),
			FlowVec: []wire.FlowEntry{{Site: 2, Count: 40}}}
	default:
		env.Msg = &wire.VmAck{UpTo: 42}
	}
	return env
}

func canonicalRecord(kind wal.RecordKind) []byte {
	act := []wal.Action{{Item: "it/17", Delta: -1, SetTS: tstamp.Make(70000, 1)}}
	switch kind {
	case wal.RecApplied:
		return (&wal.AppliedRec{CommitLSN: 70001}).Encode()
	case wal.RecVmCreate:
		return (&wal.VmCreateRec{Actions: act, Msgs: []wal.VmOut{{To: 1, Seq: 42, Item: "it/17", Amount: 1, ReqTxn: tstamp.Make(70000, 1)}}}).Encode()
	case wal.RecVmAccept:
		return (&wal.VmAcceptRec{From: 2, Seq: 42, Actions: act}).Encode()
	default:
		return (&wal.CommitRec{Txn: tstamp.Make(70000, 1), Actions: act}).Encode()
	}
}

func (r *WorkloadResult) envelope(kind wire.Kind) *wire.Envelope {
	if r.captured != nil {
		if env, ok := r.captured.envs[kind]; ok {
			return env
		}
	}
	return canonicalEnvelope(kind)
}

func (r *WorkloadResult) record(kind wal.RecordKind) []byte {
	if r.captured != nil {
		if rec, ok := r.captured.recs[kind]; ok {
			return rec
		}
	}
	return canonicalRecord(kind)
}

// runProbes prices the layers that have no seam to hang a span on:
// tight loops over their public functions, with the record and message
// shapes the workload's traced run really produced.
func runProbes(r *WorkloadResult) {
	put := func(name string, v float64, n int) { r.put(r.Layers, name, v, unitOf(name), n) }

	// wal: encode, then the append path at each level of the stack.
	commit, err := wal.DecodeCommit(r.record(wal.RecCommit))
	if err != nil {
		commit, _ = wal.DecodeCommit(canonicalRecord(wal.RecCommit)) // canonical bytes always decode
	}
	const nCPU = 20000
	ns, allocs := probe(nCPU, func() {
		w := wire.GetWriter()
		commit.EncodeTo(w)
		sinkBytes = w.Bytes()
		wire.PutWriter(w)
	})
	put("wal.encode_ns", ns, nCPU)
	put("wal.encode_allocs", allocs, nCPU)

	// store: one action against a 64-item store, as a local commit does.
	db := store.New()
	for k := 0; k < Items; k++ {
		_ = db.Create(ident.ItemID(fmt.Sprintf("it/%d", k)), plenty) // fresh store: cannot collide
	}
	actions := []wal.Action{{Item: "it/17", Delta: -1, SetTS: tstamp.Make(70000, 1)}}
	var lsn uint64
	ns, allocs = probe(nCPU, func() {
		lsn++
		actions[0].Delta = -actions[0].Delta
		sinkInt, _ = db.ApplyAll(lsn, actions)
	})
	put("store.apply_ns", ns, nCPU)
	put("store.apply_allocs", allocs, nCPU)

	// lock + cc: the admission pair every transaction pays per item.
	locks := lock.NewNoWait()
	txn := tstamp.Make(70000, 1).Txn()
	ns, allocs = probe(nCPU, func() {
		sinkBool = locks.TryLock(txn, "it/17")
		locks.ReleaseAll(txn)
	})
	put("lock.trylock_release_ns", ns, nCPU)
	put("lock.allocs", allocs, nCPU)
	clock, policy := tstamp.NewClock(1), cc.New(cc.Conc1)
	var itemTS tstamp.TS
	ns, _ = probe(nCPU, func() {
		ts := clock.Next()
		sinkBool = policy.AllowLock(ts, itemTS)
		itemTS = ts
	})
	put("cc.stamp_ns", ns, nCPU)

	// wire: the three envelopes of one redistribution.
	req, vm, ack := r.envelope(wire.KRequest), r.envelope(wire.KVm), r.envelope(wire.KVmAck)
	var frames [3][]byte
	for i, env := range []*wire.Envelope{req, vm, ack} {
		frames[i], _ = env.Marshal() // envelopes with a message always marshal
	}
	put("wire.request_bytes", float64(len(frames[0])), 1)
	put("wire.vm_bytes", float64(len(frames[1])), 1)
	put("wire.vmack_bytes", float64(len(frames[2])), 1)
	ns, allocs = probe(nCPU, func() {
		for _, env := range []*wire.Envelope{req, vm, ack} {
			w := wire.GetWriter()
			_ = env.MarshalInto(w) // checked by Marshal above
			sinkBytes = w.Bytes()
			wire.PutWriter(w)
		}
	})
	put("wire.marshal_ns", ns/3, nCPU*3)
	put("wire.marshal_allocs", allocs/3, nCPU*3)
	ns, allocs = probe(nCPU, func() {
		for _, f := range frames {
			sinkEnv, _ = wire.Unmarshal(f)
		}
	})
	put("wire.unmarshal_ns", ns/3, nCPU*3)
	put("wire.unmarshal_allocs", allocs/3, nCPU*3)

	// vmsg: one Vm's whole bookkeeping life, sender and receiver.
	sender, receiver := vmsg.NewManager(), vmsg.NewManager()
	out := []wal.VmOut{{To: 1, Item: "it/17", Amount: 1, ReqTxn: tstamp.Make(70000, 1)}}
	ns, _ = probe(nCPU, func() {
		out[0].Seq = sender.AllocSeq(1)
		sender.Created(out)
		if receiver.ShouldAccept(2, out[0].Seq) {
			receiver.MarkAccepted(2, out[0].Seq)
		}
		sender.OnAck(1, receiver.AckFor(2))
	})
	put("vmsg.cycle_ns", ns, nCPU)
}

// walProbes times the append path on the run's own directory (so the
// same filesystem as the nodes' WALs): FileLog with and without fsync,
// then GroupLog over the unsynced file with one and two appenders —
// with one appender group commit is pure hand-off cost.
func walProbes(dir string, r *WorkloadResult) error {
	put := func(name string, v float64, n int) { r.put(r.Layers, name, v, unitOf(name), n) }
	payload := r.record(wal.RecCommit)
	open := func(sync bool) (*wal.FileLog, error) {
		path := filepath.Join(dir, "probe.wal")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		return wal.OpenFileLog(path, wal.FileLogOptions{Sync: sync})
	}
	timeAppends := func(l wal.Log, n, writers int) (float64, error) {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n/writers; i++ {
					if _, err := l.Append(wal.RecCommit, payload); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		// µs each appender waits per append.
		return float64(time.Since(start)) / float64(n/writers) / 1e3, nil
	}
	for _, c := range []struct {
		name    string
		sync    bool
		group   bool
		n       int
		writers int
	}{
		{"wal.filelog_append_sync_us", true, false, 200, 1},
		{"wal.filelog_append_nosync_us", false, false, 20000, 1},
		{"wal.grouplog_append_1w_us", false, true, 20000, 1},
		{"wal.grouplog_append_2w_us", false, true, 20000, 2},
	} {
		fl, err := open(c.sync)
		if err != nil {
			return err
		}
		var l wal.Log = fl
		if c.group {
			l = wal.NewGroupLog(fl, wal.GroupCommitOptions{})
		}
		us, err := timeAppends(l, c.n, c.writers)
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		put(c.name, us, c.n)
	}
	return os.Remove(filepath.Join(dir, "probe.wal"))
}

// recoveryProbe replays site 1's WAL — the very log the window left —
// through recovery.Recover and reports its cost per record. The nodes
// are dead by now, so the file is read in place.
func recoveryProbe(path string, r *WorkloadResult) error {
	l, err := wal.OpenFileLog(path, wal.FileLogOptions{})
	if err != nil {
		return err
	}
	defer l.Close() // read-only use
	start := time.Now()
	sum, err := recovery.Recover(l, store.New(), vmsg.NewManager(), tstamp.NewClock(1))
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	if sum.RecordsScanned > 0 {
		r.put(r.Layers, "recovery.recover_ns_per_record", float64(time.Since(start))/float64(sum.RecordsScanned), "ns", sum.RecordsScanned)
	}
	return nil
}
