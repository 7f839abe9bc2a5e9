package dvp

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/wal"
)

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestQuickstartFlow(t *testing.T) {
	c := mustCluster(t, Config{Sites: 4, Seed: 1})
	if err := c.CreateItem("flight/A", 100); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if got := c.Quota(i, "flight/A"); got != 25 {
			t.Fatalf("site %d quota = %d, want 25", i, got)
		}
	}
	res := c.At(1).Reserve("flight/A", 3)
	if !res.Committed() {
		t.Fatalf("reserve: %v", res.Status)
	}
	if got := c.Quota(1, "flight/A"); got != 22 {
		t.Errorf("quota after reserve = %d, want 22", got)
	}
	res2 := c.At(2).Cancel("flight/A", 1)
	if !res2.Committed() {
		t.Fatalf("cancel: %v", res2.Status)
	}
	c.Quiesce(time.Second)
	if got := c.GlobalTotal("flight/A"); got != 98 {
		t.Errorf("N = %d, want 98", got)
	}
}

func TestCreateItemShapes(t *testing.T) {
	c := mustCluster(t, Config{Sites: 3, Seed: 2})
	if err := c.CreateItemShares("x", []Value{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if c.Quota(3, "x") != 3 {
		t.Error("explicit shares not honored")
	}
	if err := c.CreateItemShares("bad", []Value{1}); err == nil {
		t.Error("wrong share count accepted")
	}
	if err := c.CreateItemWeighted("w", 100, []float64{1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if c.Quota(3, "w") != 50 {
		t.Errorf("weighted share = %d, want 50", c.Quota(3, "w"))
	}
}

// No item has an empty name: creating one is refused, and no site
// holds it.
func TestCreateItemRefusesAnEmptyName(t *testing.T) {
	c := mustCluster(t, Config{Sites: 2, Seed: 2})
	if err := c.CreateItem("", 30); err == nil {
		t.Error(`CreateItem("", 30) accepted`)
	}
	if got := c.GlobalTotal(""); got != 0 {
		t.Errorf(`item "" holds %d`, got)
	}
}

func TestRedistributionAcrossSites(t *testing.T) {
	c := mustCluster(t, Config{Sites: 4, Seed: 3, MaxDelay: time.Millisecond})
	c.CreateItemShares("flight/A", []Value{2, 3, 10, 15})
	// The paper's §3 example: 5 seats at site 2 (N_X=3 is inadequate).
	res := c.At(2).Reserve("flight/A", 5)
	if !res.Committed() {
		t.Fatalf("reserve with redistribution: %v", res.Status)
	}
	c.Quiesce(time.Second)
	if got := c.GlobalTotal("flight/A"); got != 25 {
		t.Errorf("N = %d, want 25", got)
	}
}

func TestFullReadAndTransfer(t *testing.T) {
	c := mustCluster(t, Config{Sites: 3, Seed: 4, MaxDelay: time.Millisecond})
	c.CreateItem("a", 60)
	c.CreateItem("b", 30)
	res := c.At(1).Transfer("a", "b", 10)
	if !res.Committed() {
		t.Fatalf("transfer: %v", res.Status)
	}
	read := c.At(2).RunRetry(NewTxn().Read("a").Read("b"), 3)
	if !read.Committed() {
		t.Fatalf("read: %v", read.Status)
	}
	va, _ := ReadValue(read, "a")
	vb, _ := ReadValue(read, "b")
	if va != 50 || vb != 40 {
		t.Errorf("read a=%d b=%d, want 50/40", va, vb)
	}
}

func TestPartitionAvailability(t *testing.T) {
	c := mustCluster(t, Config{Sites: 4, Seed: 5})
	c.CreateItem("flight/A", 100)
	c.PartitionGroups([]int{1, 2}, []int{3, 4})
	// Both halves keep serving from local (and intra-group) quota.
	if res := c.At(1).Reserve("flight/A", 20); !res.Committed() {
		t.Errorf("group A reserve: %v", res.Status)
	}
	if res := c.At(3).Reserve("flight/A", 20); !res.Committed() {
		t.Errorf("group B reserve: %v", res.Status)
	}
	// Cross-group demand aborts within its bound.
	res := c.At(2).Run(NewTxn().Sub("flight/A", 60).Timeout(50 * time.Millisecond))
	if res.Status != Timeout {
		t.Errorf("oversized reserve during partition: %v", res.Status)
	}
	c.Heal()
	c.Quiesce(time.Second)
	if got := c.GlobalTotal("flight/A"); got != 60 {
		t.Errorf("N = %d, want 60", got)
	}
}

func TestCrashRestartConservation(t *testing.T) {
	c := mustCluster(t, Config{Sites: 3, Seed: 6, MaxDelay: time.Millisecond})
	c.CreateItem("acct", 300)
	if res := c.At(2).Reserve("acct", 50); !res.Committed() {
		t.Fatal(res.Status)
	}
	c.Crash(2)
	if c.SiteUp(2) {
		t.Error("site 2 should be down")
	}
	// Transactions at a down site fail fast.
	if res := c.At(2).Reserve("acct", 1); res.Status != SiteDown {
		t.Errorf("down-site txn: %v", res.Status)
	}
	// Others continue.
	if res := c.At(1).Reserve("acct", 10); !res.Committed() {
		t.Errorf("survivor txn: %v", res.Status)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if res := c.At(2).Cancel("acct", 5); !res.Committed() {
		t.Errorf("post-restart txn: %v", res.Status)
	}
	c.Quiesce(time.Second)
	if got := c.GlobalTotal("acct"); got != 245 {
		t.Errorf("N = %d, want 245", got)
	}
}

func TestOnCommitHook(t *testing.T) {
	var mu sync.Mutex
	var infos []CommitInfo
	c := mustCluster(t, Config{
		Sites: 2, Seed: 7,
		OnCommit: func(ci CommitInfo) {
			mu.Lock()
			infos = append(infos, ci)
			mu.Unlock()
		},
	})
	c.CreateItem("x", 10)
	c.At(1).Reserve("x", 2)
	c.At(2).Cancel("x", 3)
	mu.Lock()
	defer mu.Unlock()
	if len(infos) != 2 {
		t.Fatalf("%d commit hooks, want 2", len(infos))
	}
	if infos[0].Site != 1 || infos[0].Deltas["x"] != -2 || infos[0].Label != "reserve" {
		t.Errorf("hook[0] = %+v", infos[0])
	}
	if infos[1].Site != 2 || infos[1].Deltas["x"] != 3 {
		t.Errorf("hook[1] = %+v", infos[1])
	}
}

func TestConc2WithOrderPreservingNet(t *testing.T) {
	c := mustCluster(t, Config{
		Sites: 3, Seed: 8, CC: Conc2, OrderPreserving: true,
		MaxDelay: time.Millisecond,
	})
	c.CreateItem("x", 30)
	for i := 0; i < 6; i++ {
		res := c.At(i%3+1).Reserve("x", 2)
		if !res.Committed() {
			t.Fatalf("conc2 txn %d: %v", i, res.Status)
		}
	}
	c.Quiesce(time.Second)
	if got := c.GlobalTotal("x"); got != 18 {
		t.Errorf("N = %d, want 18", got)
	}
}

func TestFileBackedLogs(t *testing.T) {
	dir := t.TempDir()
	c := mustCluster(t, Config{Sites: 2, Seed: 9, FileLogDir: dir})
	c.CreateItem("x", 20)
	if res := c.At(1).Reserve("x", 5); !res.Committed() {
		t.Fatal(res.Status)
	}
	// Crash + restart recovers from the real file.
	c.Crash(1)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Quota(1, "x"); got != 5 {
		t.Errorf("quota after file recovery = %d, want 5", got)
	}
}

// A cluster that fails to build leaves nothing running: the sites built
// before the failing one are closed, their logs' flushers with them.
func TestNewClusterFailureLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "site2.wal"), []byte("not a log file, no header"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := NewCluster(Config{Sites: 3, FileLogDir: dir}); err == nil {
		t.Fatal("a cluster over a site log with a bad header was built")
	}
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("goroutines %d → %d after the failed build", before, runtime.NumGoroutine())
		}
	}
}

func TestLossyNetworkStillConserves(t *testing.T) {
	c := mustCluster(t, Config{
		Sites: 4, Seed: 10, LossProb: 0.25, DupProb: 0.15,
		MaxDelay: 2 * time.Millisecond,
	})
	c.CreateItem("x", 200)
	committed := Value(0)
	for i := 0; i < 20; i++ {
		res := c.At(i%4 + 1).Run(NewTxn().Sub("x", 8).Timeout(150 * time.Millisecond))
		if res.Committed() {
			committed += 8
		}
	}
	c.Quiesce(3 * time.Second)
	if got := c.GlobalTotal("x"); got != 200-committed {
		t.Errorf("N = %d, want %d", got, 200-committed)
	}
}

// Every cluster runs its sites on group logs (commits durable, totals
// conserved) and exposes the pipeline: a per-site GroupLog handle, a
// durable-LSN watermark covering every acknowledged commit, and
// batch/flush histograms in the registry.
func TestGroupCommitCluster(t *testing.T) {
	c := mustCluster(t, Config{Sites: 3, Seed: 17})
	if err := c.CreateItem("flight/G", 90); err != nil {
		t.Fatal(err)
	}
	var committed int64
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if c.At(1+i%3).Reserve("flight/G", 1).Committed() {
				atomic.AddInt64(&committed, 1)
			}
		}(i)
	}
	wg.Wait()
	c.Quiesce(2 * time.Second)

	if committed == 0 {
		t.Fatal("no transaction committed through the group-commit pipeline")
	}
	if got := c.GlobalTotal("flight/G"); got != 90-Value(committed) {
		t.Errorf("N = %d, want %d", got, 90-committed)
	}

	for i := 1; i <= 3; i++ {
		gl := c.GroupLog(i)
		if gl.Waiters() != 0 {
			t.Errorf("site %d: %d waiters parked after quiesce", i, gl.Waiters())
		}
		if got, want := gl.DurableLSN(), gl.LastLSN(); got != want {
			t.Errorf("site %d: durable LSN %d behind last LSN %d", i, got, want)
		}
	}
	out := c.Metrics().Render()
	for _, want := range []string{
		"dvp_wal_group_batch_bucket",
		"dvp_wal_flush_seconds_bucket",
		`site="s1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics render missing %s", want)
		}
	}
}

// A cluster with no options beyond a force delay still lets go of an
// item's stripe before forcing: while the first reserve's force is in
// flight, a second reserve on the same item enqueues its record and
// applies it, and both commit once the force lands.
func TestDefaultClusterForcesOffTheStripe(t *testing.T) {
	c := mustCluster(t, Config{Sites: 1, LogAppendDelay: 20 * time.Millisecond})
	if err := c.CreateItem("flight/D", 10); err != nil {
		t.Fatal(err)
	}
	gl := c.GroupLog(1)
	entered, release := make(chan struct{}), make(chan struct{})
	var hold, let sync.Once
	gl.SetFlushHook(func(int) {
		hold.Do(func() {
			close(entered)
			<-release
		})
	})
	defer let.Do(func() { close(release) })

	results := make(chan *Result, 2)
	reserve := func() { results <- c.At(1).Reserve("flight/D", 1) }
	go reserve()
	<-entered // the first commit's force is in flight, and held there
	go reserve()
	deadline := time.Now().Add(2 * time.Second)
	for gl.Waiters() != 2 || c.Quota(1, "flight/D") != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("second reserve: %d records queued or in flight and quota %d, want 2 and 8 while the first force is held",
				gl.Waiters(), c.Quota(1, "flight/D"))
		}
		time.Sleep(time.Millisecond)
	}
	let.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if res := <-results; !res.Committed() {
			t.Errorf("reserve %d: %v, want committed", i+1, res.Status)
		}
	}
}

// A Conc1 stamp names no item: neither the lock stamp of a transaction
// that times out on an item no site holds, nor the stamp a donor's
// NoShare puts on it. Neither writes a record, so no store lists the
// item, no checkpoint carries it, and creating it afterwards succeeds.
func TestStampNamesNoItem(t *testing.T) {
	c := mustCluster(t, Config{Sites: 3, Seed: 41})
	if res := c.At(1).Run(NewTxn().Sub("late", 1).Timeout(20 * time.Millisecond)); res.Status != Timeout {
		t.Fatalf("reserve of an item nobody holds: %v, want a timeout", res.Status)
	}
	// The read commits only once both donors, holding nothing, have
	// answered it with a NoShare.
	if res := c.At(1).Run(NewTxn().Read("late").Timeout(5 * time.Second)); !res.Committed() || res.Reads["late"] != 0 {
		t.Fatalf("full read of an item nobody holds: %v, read %d; want committed and 0", res.Status, res.Reads["late"])
	}
	for i := 1; i <= c.Sites(); i++ {
		if items := c.sites[i-1].DB().Items(); slices.Contains(items, "late") {
			t.Errorf("site %d's store lists the stamped item: %v", i, items)
		}
		if err := c.Checkpoint(i); err != nil {
			t.Fatal(err)
		}
		if err := c.sites[i-1].Log().Scan(1, func(r wal.Record) error {
			if r.Kind != wal.RecCheckpoint {
				return nil
			}
			rec, err := wal.DecodeCheckpoint(r.Data)
			if err != nil {
				return err
			}
			for _, it := range rec.Items {
				if it.Item == "late" {
					t.Errorf("site %d's checkpoint carries the stamped item: %+v", i, it)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateItemShares("late", []Value{1, 2, 3}); err != nil {
		t.Fatalf("creating the stamped item: %v", err)
	}
	if got := c.Quota(3, "late"); got != 3 {
		t.Errorf("site 3 holds %d of the created item, want 3", got)
	}
}

func TestAtPanicsOnBadIndex(t *testing.T) {
	c := mustCluster(t, Config{Sites: 2, Seed: 11})
	defer func() {
		if recover() == nil {
			t.Error("At(99) must panic")
		}
	}()
	c.At(99)
}

func TestBuilderComposition(t *testing.T) {
	b := NewTxn().Add("a", 1).Sub("b", 2).Read("c").
		Timeout(time.Second).Ask(AskOne).Label("combo")
	tx := b.build()
	if len(tx.Ops) != 2 || len(tx.Reads) != 1 || tx.Timeout != time.Second ||
		tx.Ask != AskOne || tx.Label != "combo" {
		t.Errorf("built txn = %+v", tx)
	}
}
