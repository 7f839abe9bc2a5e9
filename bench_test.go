package dvp_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dvp"
	"dvp/internal/harness"
	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// --- experiment benches ------------------------------------------------------
//
// One benchmark per table/figure in DESIGN.md §3. Each iteration runs
// the experiment in Quick mode and reports its row count; the tables
// themselves are printed by `go run ./cmd/dvpsim -exp <id>`. These
// exist so `go test -bench=.` regenerates every result end to end.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(harness.Options{Quick: true, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Table.Rows()) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		b.ReportMetric(float64(len(res.Table.Rows())), "rows")
	}
}

func BenchmarkT1NormalCaseScaling(b *testing.B)     { benchExperiment(b, "T1") }
func BenchmarkT2PartitionAvailability(b *testing.B) { benchExperiment(b, "T2") }
func BenchmarkT3IndependentRecovery(b *testing.B)   { benchExperiment(b, "T3") }
func BenchmarkT4ReadCost(b *testing.B)              { benchExperiment(b, "T4") }
func BenchmarkT5ConcurrencyControl(b *testing.B)    { benchExperiment(b, "T5") }
func BenchmarkF1SkewVsAskPolicy(b *testing.B)       { benchExperiment(b, "F1") }
func BenchmarkF2BlockingBound(b *testing.B)         { benchExperiment(b, "F2") }
func BenchmarkF3HotSpot(b *testing.B)               { benchExperiment(b, "F3") }
func BenchmarkF4VmUnderLoss(b *testing.B)           { benchExperiment(b, "F4") }
func BenchmarkF5PartitionTimeline(b *testing.B)     { benchExperiment(b, "F5") }
func BenchmarkF6QuotaDynamics(b *testing.B)         { benchExperiment(b, "F6") }
func BenchmarkA1RebalancerAblation(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2DemandRebalancing(b *testing.B)     { benchExperiment(b, "A2") }
func BenchmarkA3GrantPolicyAblation(b *testing.B)   { benchExperiment(b, "A3") }
func BenchmarkP1GroupCommit(b *testing.B)           { benchExperiment(b, "P1") }
func BenchmarkN1PeerOutage(b *testing.B)            { benchExperiment(b, "N1") }

// --- micro benches -----------------------------------------------------------

// BenchmarkLocalCommit measures the paper's common case: a write-only
// transaction touching only local quota (§5's "write-only transactions
// ... can be processed at the local site").
func BenchmarkLocalCommit(b *testing.B) {
	c, err := dvp.NewCluster(dvp.Config{Sites: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.CreateItem("bench", dvp.Value(b.N)+1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := c.At(1).Reserve("bench", 1); !res.Committed() {
			b.Fatalf("local reserve aborted: %v", res.Status)
		}
	}
}

// BenchmarkLocalCommitParallel measures the group-commit win: 8
// committers on disjoint items, each commit force-written to a real
// synced file log. The flusher folds concurrent commits into one
// write+fsync, so throughput scales with the batch instead of
// serializing on the disk.
func BenchmarkLocalCommitParallel(b *testing.B) {
	const committers = 8
	c, err := dvp.NewCluster(dvp.Config{Sites: 1, Seed: 1, FileLogDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	items := make([]string, committers)
	for g := range items {
		items[g] = fmt.Sprintf("bench/%d", g)
		if err := c.CreateItem(items[g], dvp.Value(b.N)+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += committers {
				if res := c.At(1).Reserve(items[g], 1); !res.Committed() {
					b.Errorf("parallel reserve aborted: %v", res.Status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkLocalCommitWriteOnly measures the paper's common case: 8
// committers on disjoint items over a memory-backed group-commit log,
// so the protocol's own CPU and allocation cost — not the disk —
// dominates. Every transaction is write-only and locally adequate, the
// shape Run commits under its admission stripes without asking anyone.
// check.sh gates on its allocs/op.
func BenchmarkLocalCommitWriteOnly(b *testing.B) {
	const committers = 8
	c, err := dvp.NewCluster(dvp.Config{Sites: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	items := make([]string, committers)
	for g := range items {
		items[g] = fmt.Sprintf("bench/%d", g)
		if err := c.CreateItem(items[g], dvp.Value(b.N)+1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += committers {
				if res := c.At(1).Reserve(items[g], 1); !res.Committed() {
					b.Errorf("parallel reserve aborted: %v", res.Status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkMixedCommitParallel measures the whole-site concurrency the
// layered commit engine exists for: committers at site 1 run a mix of
// local adequate writes, shortfall writes that must pull quota from
// site 2 (waiter table + inbound Vm + request handling), and full
// reads that gather from the peer — while a background pump streams
// unsolicited Vm transfers into site 1, so the message router runs
// concurrently with every commit. Before the mutex-free layering, all
// of that serialized on one site mutex for stats, waiter lookups and
// liveness checks; the committers=8 row against the pre-refactor
// baseline is the headline number.
func BenchmarkMixedCommitParallel(b *testing.B) {
	run := func(b *testing.B, committers int) {
		c, err := dvp.NewCluster(dvp.Config{
			Sites:           2,
			Seed:            1,
			RetransmitEvery: 2 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		items := make([]string, committers)
		pulls := make([]string, committers)
		for g := 0; g < committers; g++ {
			items[g] = fmt.Sprintf("mix/local/%d", g)
			pulls[g] = fmt.Sprintf("mix/pull/%d", g)
			// Local items live wholly at site 1, so the plain writes are
			// always locally adequate and never convert to pulls.
			if err := c.CreateItemShares(items[g], []dvp.Value{dvp.Value(b.N) + 1, 0}); err != nil {
				b.Fatal(err)
			}
			// Pull items live almost entirely at site 2: every 16th op is
			// a shortfall write that must ask, wait and accept a Vm.
			if err := c.CreateItemShares(pulls[g], []dvp.Value{1, dvp.Value(b.N) + 1}); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.CreateItemShares("mix/pump", []dvp.Value{0, dvp.Value(b.N) + 1_000_000}); err != nil {
			b.Fatal(err)
		}
		// Background Vm pump: site 2 ships single-unit transfers at
		// site 1 for the bench's whole life, so inbound Vm acceptance
		// contends with the committers.
		stopPump := make(chan struct{})
		pumpDone := make(chan struct{})
		go func() {
			defer close(pumpDone)
			for {
				select {
				case <-stopPump:
					return
				default:
				}
				_ = c.SendValue("mix/pump", 2, 1, 1)
				time.Sleep(100 * time.Microsecond)
			}
		}()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < committers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < b.N; i += committers {
					var res *dvp.Result
					kind := "local"
					switch {
					case i%16 == 15:
						// Shortfall write: §5 steps 2–3 in full. Retried
						// like any real client (§5): a declined request
						// (granting side briefly locked) has no reply, so
						// only the timeout ends the attempt.
						kind = "pull"
						res = c.At(1).RunRetry(dvp.NewTxn().
							Sub(pulls[g], 1).Timeout(500*time.Millisecond), 10)
					case i%16 == 7:
						// Full read: gather from every peer. Retried for
						// the same reason — the previous read's reply Vm
						// may still be outstanding at the peer, which
						// declines the gather until it is acked.
						kind = "read"
						res = c.At(1).RunRetry(dvp.NewTxn().
							Read(items[g]).Timeout(500*time.Millisecond), 10)
					default:
						// Local write: adequate at site 1.
						res = c.At(1).Reserve(items[g], 1)
					}
					if !res.Committed() {
						b.Errorf("mixed %s txn aborted: %v", kind, res.Status)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		b.StopTimer()
		close(stopPump)
		<-pumpDone
	}
	for _, n := range []int{1, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("committers=%d", n), func(b *testing.B) { run(b, n) })
	}
}

// BenchmarkVmThroughput measures the Vm pipeline end to end: b.N
// single-unit Rds transfers from site 1 to site 2 (log create → send →
// accept → cumulative ack), timed until the receiver has accepted every
// one. Coalesced network writes and VmBatch piggybacking determine how
// many envelopes and syscalls that takes.
func BenchmarkVmThroughput(b *testing.B) {
	c, err := dvp.NewCluster(dvp.Config{
		Sites: 2, Seed: 1, RetransmitEvery: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateItemShares("bench", []dvp.Value{dvp.Value(b.N) + 1, 0}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendValue("bench", 1, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
	for deadline := time.Now().Add(time.Minute); c.Quota(2, "bench") < dvp.Value(b.N); {
		if time.Now().After(deadline) {
			b.Fatalf("receiver accepted %d of %d transfers within a minute",
				c.Quota(2, "bench"), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkRedistribution measures the §3 slow path: every transaction
// must pull quota from a peer first.
func BenchmarkRedistribution(b *testing.B) {
	c, err := dvp.NewCluster(dvp.Config{Sites: 2, Seed: 1, RetransmitEvery: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.CreateItemShares("bench", []dvp.Value{0, dvp.Value(b.N) + 1_000_000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.At(1).Run(dvp.NewTxn().Sub("bench", 1).Timeout(time.Second))
		if !res.Committed() {
			b.Fatalf("redistribution reserve aborted: %v", res.Status)
		}
	}
}

// BenchmarkFullRead measures the expensive operation the paper
// concedes (§8): gathering all of Π⁻¹(d) before reading.
func BenchmarkFullRead(b *testing.B) {
	c, err := dvp.NewCluster(dvp.Config{Sites: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.CreateItem("bench", 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.At(i%4+1).RunRetry(dvp.NewTxn().Read("bench").Timeout(time.Second), 3)
		if !res.Committed() {
			b.Fatalf("read aborted: %v", res.Status)
		}
	}
}

// BenchmarkEnvelopeCodec measures the wire codec round trip.
func BenchmarkEnvelopeCodec(b *testing.B) {
	env := &wire.Envelope{
		From: 1, To: 2, Lamport: 12345, AckUpTo: 99,
		Msg: &wire.Vm{Seq: 7, Item: "flight/A", Amount: 5, ReqTxn: 42},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := env.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalAppend measures the in-memory stable log.
func BenchmarkWalAppend(b *testing.B) {
	l := wal.NewMemLog()
	rec := (&wal.CommitRec{Txn: 42, Actions: []wal.Action{{Item: "x", Delta: -1, SetTS: 42}}}).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(wal.RecCommit, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileWalAppend measures the CRC-framed file log (no fsync).
func BenchmarkFileWalAppend(b *testing.B) {
	l, err := wal.OpenFileLog(b.TempDir()+"/bench.wal", wal.FileLogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := (&wal.CommitRec{Txn: 42, Actions: []wal.Action{{Item: "x", Delta: -1, SetTS: 42}}}).Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(wal.RecCommit, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- recovery benches --------------------------------------------------------

// buildRecoveryLog writes n multi-action commit records across 64
// items, as a site writes them: each item named once, by a RecName
// ahead of its first commit, and referred to by ordinal after it. With
// ckptSuffix > 0 it embeds a consistent checkpoint record, its items
// with their ordinals, leaving exactly ckptSuffix commits after it, so
// recovery replays a fixed-length suffix however long the total
// history is.
func buildRecoveryLog(b *testing.B, n, ckptSuffix int) *wal.MemLog {
	b.Helper()
	l := wal.NewMemLog()
	db := store.New()
	vm := vmsg.NewManager()
	clock := tstamp.NewClock(1)
	const items = 64
	ords := make(map[ident.ItemID]uint64, items)
	action := func(k int, delta dvp.Value, ts tstamp.TS) wal.Action {
		item := ident.ItemID(fmt.Sprintf("item/%d", k%items))
		ord, ok := ords[item]
		if !ok {
			ord = uint64(len(ords) + 1)
			if _, err := l.Append(wal.RecName, (&wal.NameRec{Ord: ord, Item: item}).Encode()); err != nil {
				b.Fatal(err)
			}
			ords[item] = ord
		}
		return wal.Action{Item: item, Delta: delta, SetTS: ts, Ord: ord}
	}
	for i := 0; i < n; i++ {
		if ckptSuffix > 0 && i == n-ckptSuffix {
			cp := &wal.CheckpointRec{
				Items:    db.Snapshot(),
				Channels: vm.SnapshotChannels(),
				Clock:    clock.Current(),
			}
			for j := range cp.Items {
				cp.Items[j].Ord = ords[cp.Items[j].Item]
			}
			if _, err := l.Append(wal.RecCheckpoint, cp.Encode()); err != nil {
				b.Fatal(err)
			}
		}
		ts := tstamp.Make(uint64(i)+1, 1)
		rec := &wal.CommitRec{Txn: ts, Actions: []wal.Action{
			action(i, 1, ts), action(i+7, 2, ts), action(i+13, 3, ts),
		}}
		lsn, err := l.Append(wal.RecCommit, rec.Encode())
		if err != nil {
			b.Fatal(err)
		}
		// Maintain writer state only up to the checkpoint cut.
		if ckptSuffix > 0 && i < n-ckptSuffix {
			if _, err := db.ApplyAll(lsn, rec.Actions); err != nil {
				b.Fatal(err)
			}
			clock.Observe(ts)
		}
	}
	return l
}

// BenchmarkRecover measures restart time (the R1 experiment). full/*
// replays the whole history, so restart time grows with the log;
// checkpointed/* starts from a checkpoint with a fixed 2000-record
// suffix, so restart time is flat in total history length.
func BenchmarkRecover(b *testing.B) {
	recoverOnce := func(b *testing.B, l *wal.MemLog) {
		b.Helper()
		sum, err := recovery.Recover(l, store.New(), vmsg.NewManager(), tstamp.NewClock(1))
		if err != nil {
			b.Fatal(err)
		}
		if sum.RecordsScanned == 0 {
			b.Fatal("recovery scanned nothing")
		}
	}
	for _, n := range []int{20_000, 50_000, 100_000} {
		n := n
		b.Run(fmt.Sprintf("full/records=%d", n), func(b *testing.B) {
			l := buildRecoveryLog(b, n, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recoverOnce(b, l)
			}
		})
		b.Run(fmt.Sprintf("checkpointed/records=%d", n), func(b *testing.B) {
			l := buildRecoveryLog(b, n, 2000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recoverOnce(b, l)
			}
		})
	}
}
