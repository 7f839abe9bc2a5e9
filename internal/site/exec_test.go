package site

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// countRecords tallies a log's records by kind.
func countRecords(t *testing.T, log wal.Log, from uint64) map[wal.RecordKind]int {
	t.Helper()
	n := make(map[wal.RecordKind]int)
	if err := log.Scan(from, func(r wal.Record) error { n[r.Kind]++; return nil }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return n
}

const (
	noWaitSteps = "admit,cc-check,lock,apply,wal-flush"
	waitSteps   = "admit,cc-check,lock,ask,vm-accept,apply,wal-flush"
)

// TestRunShapes drives every shape of transaction through Run, the one
// §5 implementation, at site 1 of a cluster whose items are split
// evenly. Each row pins the decision, the trace's step sequence (the
// observable difference between committing under the admission
// stripes and asking first), the two no-wait counters, whether
// requests went out, what the transaction read, site 1's quotas
// afterwards and the commit records its log holds.
func TestRunShapes(t *testing.T) {
	wide := &txn.Txn{Label: "wide"}
	wideAfter := make(map[ident.ItemID]core.Value)
	wideTotals := make(map[ident.ItemID]core.Value)
	for _, item := range []ident.ItemID{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9"} {
		wide.Ops = append(wide.Ops, txn.ItemOp{Item: item, Op: core.Decr{M: 1}})
		wideTotals[item] = 10
		wideAfter[item] = 4
	}

	cases := []struct {
		name   string
		sites  int
		totals map[ident.ItemID]core.Value
		txn    *txn.Txn
		// crash kills site 1 before the transaction runs; crashParked
		// kills it once the transaction is parked in its step-3 wait.
		crash, crashParked bool

		want           txn.Status
		steps          string
		fast, fallback uint64
		asked          bool
		reads          map[ident.ItemID]core.Value
		after          map[ident.ItemID]core.Value
		commits        int
	}{
		{
			name: "write-only adequate", sites: 4,
			totals: map[ident.ItemID]core.Value{"x": 100},
			txn:    reserve("x", 10),
			want:   txn.StatusCommitted, steps: noWaitSteps, fast: 1,
			after: map[ident.ItemID]core.Value{"x": 15}, commits: 1,
		},
		{
			name: "write-only short", sites: 4,
			totals: map[ident.ItemID]core.Value{"x": 100},
			txn:    reserve("x", 40),
			want:   txn.StatusCommitted, steps: waitSteps, fallback: 1, asked: true,
			commits: 1,
		},
		{
			name: "full read", sites: 3,
			totals: map[ident.ItemID]core.Value{"x": 90},
			txn:    readItem("x"),
			want:   txn.StatusCommitted, steps: waitSteps, asked: true,
			reads: map[ident.ItemID]core.Value{"x": 90},
			after: map[ident.ItemID]core.Value{"x": 90}, commits: 1,
		},
		{
			// A read observes the gathered value before the
			// transaction's own write to the same item.
			name: "mixed read and write", sites: 3,
			totals: map[ident.ItemID]core.Value{"a": 30, "b": 60},
			txn: &txn.Txn{
				Ops:   []txn.ItemOp{{Item: "a", Op: core.Decr{M: 4}}},
				Reads: []ident.ItemID{"a", "b"}, Ask: txn.AskAll, Label: "mixed",
			},
			want: txn.StatusCommitted, steps: waitSteps, asked: true,
			reads: map[ident.ItemID]core.Value{"a": 30, "b": 60},
			after: map[ident.ItemID]core.Value{"a": 26, "b": 60}, commits: 1,
		},
		{
			name: "ten ops on ten items", sites: 2,
			totals: wideTotals, txn: wide,
			want: txn.StatusCommitted, steps: noWaitSteps, fast: 1,
			after: wideAfter, commits: 1,
		},
		{
			// (sub 20, add 5) on one item needs 20 up front even though
			// the net delta is -15: exactly the local share.
			name: "repeated ops compose the need", sites: 1,
			totals: map[ident.ItemID]core.Value{"a": 20, "b": 50},
			txn: &txn.Txn{Ops: []txn.ItemOp{
				{Item: "a", Op: core.Decr{M: 20}},
				{Item: "a", Op: core.Incr{M: 5}},
				{Item: "b", Op: core.Decr{M: 7}},
			}, Label: "compose"},
			want: txn.StatusCommitted, steps: noWaitSteps, fast: 1,
			after: map[ident.ItemID]core.Value{"a": 5, "b": 43}, commits: 1,
		},
		{
			name: "crashed site", sites: 2, crash: true,
			totals: map[ident.ItemID]core.Value{"x": 100},
			txn:    reserve("x", 1),
			want:   txn.StatusSiteDown,
			after:  map[ident.ItemID]core.Value{"x": 50},
		},
		{
			// Unsatisfiable, so it parks until the crash fails it; the
			// epoch re-fence keeps its commit record out of the log.
			name: "crash while parked", sites: 3, crashParked: true,
			totals: map[ident.ItemID]core.Value{"x": 0},
			txn: &txn.Txn{
				Ops:     []txn.ItemOp{{Item: "x", Op: core.Decr{M: 5}}},
				Timeout: 5 * time.Second, Ask: txn.AskAll,
			},
			want: txn.StatusSiteDown, steps: "admit,cc-check,lock,ask", fallback: 1, asked: true,
			after: map[ident.ItemID]core.Value{"x": 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ring := obs.NewRing(16)
			tc := newTestCluster(t, c.sites, simnet.Config{Seed: 1}, func(i int, cfg *Config) {
				cfg.Metrics = reg
				if i == 0 {
					cfg.Trace = ring
				}
			})
			for item, total := range c.totals {
				tc.createItem(item, total)
			}
			s := tc.sites[0]
			placed := tc.logs[0].LastLSN()

			var res *txn.Result
			switch {
			case c.crashParked:
				done := make(chan *txn.Result, 1)
				go func() { done <- s.Run(c.txn) }()
				waitUntil(t, 2*time.Second, "txn parked on its item", func() bool {
					return parkedWaiters(s) == 1
				})
				s.Crash()
				select {
				case res = <-done:
				case <-time.After(2 * time.Second):
					t.Fatal("crash did not wake the parked transaction")
				}
				if err := s.Restart(); err != nil {
					t.Fatalf("restart: %v", err)
				}
			case c.crash:
				s.Crash()
				res = s.Run(c.txn)
				if lsn := tc.logs[0].LastLSN(); lsn != placed {
					t.Errorf("crashed site appended to its log (last LSN %d)", lsn)
				}
			default:
				res = s.Run(c.txn)
			}

			if res.Status != c.want {
				t.Fatalf("status = %v, want %v", res.Status, c.want)
			}
			if asked := res.RequestsSent > 0; asked != c.asked {
				t.Errorf("RequestsSent = %d, asked want %v", res.RequestsSent, c.asked)
			}
			if c.asked && c.want == txn.StatusCommitted && res.VmAccepted == 0 {
				t.Error("committed after asking without accepting a Vm")
			}
			if got := reg.SumCounters("dvp_fastpath_commits_total"); got != c.fast {
				t.Errorf("dvp_fastpath_commits_total = %d, want %d", got, c.fast)
			}
			if got := reg.SumCounters("dvp_fastpath_fallback_total"); got != c.fallback {
				t.Errorf("dvp_fastpath_fallback_total = %d, want %d", got, c.fallback)
			}
			var names []string
			for _, tr := range ring.Last(16) {
				if tr.Kind == "txn" {
					for _, st := range tr.Steps {
						names = append(names, st.Name)
					}
				}
			}
			if got := strings.Join(names, ","); got != c.steps {
				t.Errorf("trace steps = %q, want %q", got, c.steps)
			}
			for item, want := range c.reads {
				if got := res.Reads[item]; got != want {
					t.Errorf("read %s = %d, want %d", item, got, want)
				}
			}
			for item, want := range c.after {
				if got := s.DB().Value(item); got != want {
					t.Errorf("site 1 %s = %d, want %d", item, got, want)
				}
			}
			if got := countRecords(t, tc.logs[0], placed+1)[wal.RecCommit]; got != c.commits {
				t.Errorf("commit records in site 1's log = %d, want %d", got, c.commits)
			}
			for item, total := range c.totals {
				tc.waitQuiescent(item, 2*time.Second)
				want := total
				if c.want == txn.StatusCommitted {
					for _, op := range c.txn.Ops {
						if op.Item == item {
							want += op.Op.Delta()
						}
					}
				}
				if got := tc.globalTotal(item); got != want {
					t.Errorf("global total of %s = %d, want %d", item, got, want)
				}
			}
		})
	}
}

// TestOneRecordPerCommit: N local commits leave exactly N commit
// records in the log and nothing else — one record, one force, per
// durable fact.
func TestOneRecordPerCommit(t *testing.T) {
	tc := newTestCluster(t, 1, simnet.Config{Seed: 1}, nil)
	tc.createItem("x", 100)
	placed := tc.logs[0].LastLSN() // Start's clock reservation, then the placement
	const n = 25
	for i := 0; i < n; i++ {
		if res := tc.sites[0].Run(reserve("x", 1)); !res.Committed() {
			t.Fatalf("reserve %d: %v", i, res.Status)
		}
	}
	recs := countRecords(t, tc.logs[0], placed+1)
	if recs[wal.RecCommit] != n || recs[wal.RecApplied] != 0 || tc.logs[0].LastLSN() != placed+n {
		t.Errorf("after %d commits: %d commit records, %d applied records, last LSN %d; want %d, 0, %d",
			n, recs[wal.RecCommit], recs[wal.RecApplied], tc.logs[0].LastLSN(), n, placed+n)
	}
}

// A transaction short on six items asks for them in the order fold
// lists them — first use — on every run, not in a map's order.
func TestRequestsLeaveInFoldOrder(t *testing.T) {
	items := []ident.ItemID{"i3", "i0", "i5", "i1", "i4", "i2"}
	tc := newTestCluster(t, 2, simnet.Config{Seed: 75}, nil)
	var mu sync.Mutex
	var asked []ident.ItemID
	tc.net.SetTap(func(from, _ ident.SiteID, kind wire.Kind, frame []byte) {
		if from != 1 || kind != wire.KRequest {
			return
		}
		env, err := wire.Unmarshal(frame)
		if err != nil {
			t.Errorf("tap: bad frame: %v", err)
			return
		}
		mu.Lock()
		asked = append(asked, env.Msg.(*wire.Request).Item)
		mu.Unlock()
	})
	tx := &txn.Txn{Ask: txn.AskAll, Label: "six"}
	for _, item := range items {
		place(t, tc.sites[0], item, 0)
		place(t, tc.sites[1], item, 10)
		tx.Ops = append(tx.Ops, txn.ItemOp{Item: item, Op: core.Decr{M: 1}})
	}
	if res := tc.sites[0].Run(tx); !res.Committed() || res.RequestsSent != len(items) {
		t.Fatalf("six-item write: %v, %d requests", res.Status, res.RequestsSent)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(asked, items) {
		t.Errorf("requests asked for %v, want fold's order %v", asked, items)
	}
}
