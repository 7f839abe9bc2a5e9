package site

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// obsCluster builds an n-site test cluster whose sites share one
// metrics registry and trace ring.
func obsCluster(t *testing.T, n int, netCfg simnet.Config) (*testCluster, *obs.Registry, *obs.Ring) {
	t.Helper()
	reg := obs.NewRegistry()
	ring := obs.NewRing(64)
	tc := newTestCluster(t, n, netCfg, func(i int, c *Config) {
		c.Metrics = reg
		c.Trace = ring
	})
	return tc, reg, ring
}

// Acks from site 1 back to site 2 are cut, so site 2's Vm keeps
// retransmitting and site 1 keeps dropping duplicates; once the filter
// lifts, the pending set drains. The counters must show retransmits>0,
// dup drops>0, and exactly-once acceptance throughout.
func TestVmRetransmissionMetrics(t *testing.T) {
	tc, reg, _ := obsCluster(t, 2, simnet.Config{Seed: 42})
	item := ident.ItemID("flight/A")
	tc.createItem(item, 20) // 10 per site

	tc.net.SetFilter(func(from, to ident.SiteID, kind wire.Kind) bool {
		return !(kind == wire.KVmAck && from == 1 && to == 2)
	})

	// Needs 5 from site 2: one Vm flows 2→1, whose ack 1→2 is cut.
	res := tc.sites[0].Run(&txn.Txn{
		Ops:   []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
		Ask:   txn.AskAll,
		Label: "reserve",
	})
	if !res.Committed() {
		t.Fatalf("reserve: %v", res.Status)
	}

	// Let the 5ms retransmit loop fire a few times into the ack hole.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.CounterValue("dvp_vmsg_retransmissions_total", "site", "s2") > 0 &&
			reg.CounterValue("dvp_vmsg_dup_drops_total", "site", "s1", "peer", "s2") > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	tc.net.SetFilter(nil)
	tc.waitQuiescent(item, 2*time.Second)

	retx := reg.CounterValue("dvp_vmsg_retransmissions_total", "site", "s2")
	if retx == 0 {
		t.Error("expected retransmissions > 0 while acks were cut")
	}
	if got := tc.sites[1].Stats().Retransmissions; got != retx {
		t.Errorf("metrics retransmissions = %d, Stats() = %d", retx, got)
	}
	if dups := reg.CounterValue("dvp_vmsg_dup_drops_total", "site", "s1", "peer", "s2"); dups == 0 {
		t.Error("expected duplicate drops > 0 at the receiver")
	}
	// Exactly-once: one Vm created, one accepted, however many resends.
	if got := reg.CounterValue("dvp_vmsg_created_total", "site", "s2", "peer", "s1"); got != 1 {
		t.Errorf("vm created = %d, want 1", got)
	}
	if got := reg.CounterValue("dvp_vmsg_accepted_total", "site", "s1", "peer", "s2"); got != 1 {
		t.Errorf("vm accepted = %d, want 1", got)
	}
	if n := tc.sites[1].VM().PendingCount(ident.SiteID(1)); n != 0 {
		t.Errorf("pending after heal = %d, want 0", n)
	}
	if total := tc.globalTotal(item); total != 5 {
		t.Errorf("global total = %d, want 5", total)
	}
}

// A committed multi-site reserve must leave a trace holding all seven
// protocol steps, in order, with the committed outcome.
func TestTraceSevenSteps(t *testing.T) {
	tc, _, ring := obsCluster(t, 2, simnet.Config{Seed: 7})
	item := ident.ItemID("flight/B")
	tc.createItem(item, 20)

	res := tc.sites[0].Run(&txn.Txn{
		Ops:   []txn.ItemOp{{Item: item, Op: core.Decr{M: 15}}},
		Ask:   txn.AskAll,
		Label: "reserve",
	})
	if !res.Committed() {
		t.Fatalf("reserve: %v", res.Status)
	}

	traces := ring.Last(10)
	var got *obs.Trace
	for _, tr := range traces {
		if tr.Label == "reserve" && tr.Outcome == "committed" {
			got = tr
		}
	}
	if got == nil {
		t.Fatalf("no committed reserve trace in %d traces", len(traces))
	}
	if got.Site != "s1" {
		t.Errorf("trace site = %q, want s1", got.Site)
	}
	if got.TS == 0 {
		t.Error("trace has no timestamp")
	}
	want := []string{"admit", "cc-check", "lock", "ask", "vm-accept", "apply", "wal-flush"}
	var names []string
	for _, st := range got.Steps {
		names = append(names, st.Name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("trace steps = %v, want %v", names, want)
	}
	prev := int64(-1)
	for _, st := range got.Steps {
		if st.AtMicros < prev {
			t.Errorf("step %s at %dµs precedes prior step at %dµs", st.Name, st.AtMicros, prev)
		}
		prev = st.AtMicros
	}
}

// The registry render must be well-formed even while sites are live:
// vmsg's pending gauge function takes the manager lock at exposition.
func TestMetricsRenderWhileLive(t *testing.T) {
	tc, reg, _ := obsCluster(t, 3, simnet.Config{Seed: 9})
	item := ident.ItemID("sku/x")
	tc.createItem(item, 30)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tc.sites[i%3].Run(&txn.Txn{
				Ops:   []txn.ItemOp{{Item: item, Op: core.Decr{M: 1}}},
				Ask:   txn.AskAll,
				Label: "reserve",
			})
		}
	}()
	for i := 0; i < 50; i++ {
		if out := reg.Render(); out == "" {
			t.Error("empty render from live registry")
		}
	}
	<-done

	out := reg.Render()
	for _, want := range []string{
		"dvp_site_txn_total{outcome=\"committed\",site=\"s1\"}",
		"dvp_site_txn_seconds_bucket",
		"dvp_vmsg_pending{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %s", want)
		}
	}
}

// TestMetricsSeriesBounded pins the cardinality budget: the same
// traffic over 4 items and 2 labels or over 256 items and 64 labels
// leaves the same METRICS series set (names and labels, values and
// histogram bucket bounds stripped). A series exists per site, peer,
// outcome or step — never per item or per transaction label.
func TestMetricsSeriesBounded(t *testing.T) {
	le := regexp.MustCompile(`,?le="[^"]*"`)
	series := func(items, labels int) []string {
		tc, reg, _ := obsCluster(t, 2, simnet.Config{Seed: 11})
		run := func(item ident.ItemID, m core.Value, label string) {
			t.Helper()
			res := tc.sites[0].Run(&txn.Txn{
				Ops:   []txn.ItemOp{{Item: item, Op: core.Decr{M: m}}},
				Ask:   txn.AskAll,
				Label: label,
			})
			if !res.Committed() {
				t.Fatalf("%s on %s: %v", label, item, res.Status)
			}
		}
		for i := 0; i < items; i++ {
			item := ident.ItemID(fmt.Sprintf("sku/%d", i))
			tc.createItem(item, 20)
			run(item, 1, fmt.Sprintf("label-%d", i%labels))
		}
		// One shortfall write: a request, a Vm and its acceptance.
		run("sku/0", 15, "label-0")
		tc.waitQuiescent("sku/0", 2*time.Second)
		var keys []string
		for _, line := range strings.Split(reg.Render(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			keys = append(keys, le.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], ""))
		}
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	small, large := series(4, 2), series(256, 64)
	if !slices.Equal(small, large) {
		var extra []string
		for _, k := range large {
			if _, found := slices.BinarySearch(small, k); !found {
				extra = append(extra, k)
			}
		}
		t.Errorf("series grow with items or labels: %d series at 4 items / 2 labels, %d at 256 / 64; first extra: %v",
			len(small), len(large), extra[:min(len(extra), 5)])
	}
}

// Every reason handleRequest declines for moves its own series of
// dvp_site_requests_declined_total, and only that one. Site 2 asks site
// 1, which is handed each request directly; the link back to site 2 is
// down, so a Vm site 1 grants stays outstanding.
func TestDeclineReasonsCountApart(t *testing.T) {
	tc, reg, _ := obsCluster(t, 2, simnet.Config{Seed: 44})
	donor := tc.sites[0]
	tc.net.SetLink(1, 2, false)
	const empty, held, granted = ident.ItemID("empty"), ident.ItemID("held"), ident.ItemID("granted")
	place(t, donor, empty, 0)
	place(t, donor, held, 10)
	place(t, donor, granted, 10)
	counter := donor.lamport.Bound() + 1
	ask := func(item ident.ItemID, fullRead bool, ts tstamp.TS) {
		t.Helper()
		donor.handle(&wire.Envelope{From: 2, To: 1, Lamport: ts, Msg: &wire.Request{Txn: ts, Item: item, Want: 1, FullRead: fullRead}})
	}
	next := func() tstamp.TS {
		counter++
		return tstamp.Make(counter, 2)
	}
	declined := func() map[string]uint64 {
		m := make(map[string]uint64, len(declineReasons))
		for _, r := range declineReasons {
			m[r] = reg.CounterValue("dvp_site_requests_declined_total", "site", "s1", "peer", "s2", "reason", r)
		}
		return m
	}
	expect := func(reason string, do func()) {
		t.Helper()
		before := declined()
		do()
		after := declined()
		for _, r := range declineReasons {
			want := before[r]
			if r == reason {
				want++
			}
			if after[r] != want {
				t.Errorf("after a %s decline: reason=%q reads %d, want %d", reason, r, after[r], want)
			}
		}
	}

	expect("no-grant", func() { ask(empty, false, next()) })
	expect("locked", func() {
		stripe, st := donor.lockItem(held)
		st.holder = 99
		stripe.Unlock()
		ask(held, false, next())
		stripe, st = donor.lockItem(held)
		st.holder = ident.NoTxn
		stripe.Unlock()
	})
	// A grant stamps the item at its requester's timestamp and leaves a
	// Vm outstanding: a request below the stamp fails Conc1, and a full
	// read above it meets the Vm.
	stamp := next()
	honored := donor.Stats().RequestsHonored
	ask(granted, false, stamp)
	if donor.Stats().RequestsHonored != honored+1 {
		t.Fatal("site 1 did not honor the request that leaves a Vm outstanding")
	}
	expect("cc", func() { ask(granted, false, tstamp.Make(stamp.Counter()-1, 2)) })
	expect("outstanding-vm", func() { ask(granted, true, next()) })
	expect("log-error", func() {
		tc.logs[0].SetAppendHook(func(wal.Record) error { return errors.New("disk full") })
		ask(held, false, next())
	})
}
