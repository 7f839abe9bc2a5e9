package dvp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/recovery"
)

// TestCheckpointUnderGroupCommitLoad interleaves the automatic
// checkpointer (plus explicit Checkpoint calls) with committers parked
// on the group-commit flusher: the durable LSN must never regress
// while checkpoints compact the log underfoot, the pipeline must fully
// drain, and a crash-restart through the compacted log must recover
// the exact durable state via the checkpoint and suffix replay.
func TestCheckpointUnderGroupCommitLoad(t *testing.T) {
	c, err := NewCluster(Config{
		Sites:       2,
		GroupCommit: true,
		// A per-flush stable-write delay keeps committers genuinely
		// parked mid-batch while checkpoints run.
		LogAppendDelay:         200 * time.Microsecond,
		CheckpointEveryRecords: 48,
		DefaultTimeout:         time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateItem("x", 10_000); err != nil {
		t.Fatal(err)
	}

	gl := c.GroupLog(1)
	if gl == nil {
		t.Fatal("group commit not wired")
	}

	stop := make(chan struct{})
	var regressed atomic.Bool
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := gl.DurableLSN(); d < prev {
				regressed.Store(true)
				return
			} else {
				prev = d
			}
		}
	}()
	// Explicit checkpoints race the automatic ones and the committers.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := c.Checkpoint(1); err != nil {
				t.Errorf("checkpoint under load: %v", err)
				return
			}
		}
	}()

	const workers = 4
	const perWorker = 60
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.At(1)
			for i := 0; i < perWorker; i++ {
				if res := h.RunRetry(NewTxn().Sub("x", 1).Label("load"), 5); res.Committed() {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	if regressed.Load() {
		t.Fatal("durable LSN regressed while checkpoints compacted the log")
	}
	if committed.Load() == 0 {
		t.Fatal("no transaction committed under checkpoint load")
	}
	c.Quiesce(2 * time.Second)
	c.SetCheckpointPaused(true)
	defer c.SetCheckpointPaused(false)
	if w := gl.Waiters(); w != 0 {
		t.Errorf("%d committers still parked after drain", w)
	}
	if d, last := gl.DurableLSN(), c.LogRecords(1); d != last {
		t.Errorf("durable LSN %d != last LSN %d", d, last)
	}

	// The compacted log alone must reproduce the live store: the
	// checkpoint snapshot carries the pre-compaction history.
	live := c.Quota(1, "x")
	db, _, rsum, err := recovery.Rebuild(c.SiteEngine(1).Log(), c.SiteEngine(1).ID())
	if err != nil {
		t.Fatalf("rebuild from compacted log: %v", err)
	}
	if got := Value(db.Value("x")); got != live {
		t.Errorf("rebuilt x = %d, live = %d (checkpoint lost history)", got, live)
	}
	if rsum.CheckpointLSN == 0 {
		t.Error("rebuild found no checkpoint despite auto-checkpointing")
	}

	// Full crash-restart through §7 recovery.
	c.Crash(1)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Quota(1, "x"); got != live {
		t.Errorf("post-restart x = %d, want %d", got, live)
	}
	sum := c.LastRecovery(1)
	if sum.CheckpointLSN == 0 {
		t.Error("restart did not use a checkpoint")
	}
	if sum.NetworkCalls != 0 {
		t.Error("recovery made network calls")
	}
}
