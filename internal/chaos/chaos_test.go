package chaos

import (
	"flag"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dvp"
	"dvp/internal/ident"
	"dvp/internal/wal"
)

// seedCount widens the corpus for long-running soak sessions:
//
//	go test ./internal/chaos -run Chaos -chaos.seeds=500
//
// The default (0) runs the short-mode corpus of 20 fixed seeds.
var seedCount = flag.Int("chaos.seeds", 0, "number of chaos seeds to run (0 = fixed corpus of 20)")

// TestChaosSeeds is the main gate: every seed builds a distinct
// crash/partition schedule, runs it against a concurrent randomized
// workload, and checks all seven invariant families at every round
// barrier. A failure prints the seed, the exact replay commands, the
// full schedule and the event trace.
func TestChaosSeeds(t *testing.T) {
	n := 20
	if *seedCount > 0 {
		n = *seedCount
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sched := Build(seed)
			rep, err := Run(sched, Options{})
			if err != nil {
				t.Fatalf("%v\n\nreplay: go test ./internal/chaos -run 'TestChaosSeeds/seed=%d$' -count=1\n    or: dvpsim chaos -seed %d -v\n\nschedule:\n%s\ntrace:\n%s\nflight recorder:\n%s",
					err, seed, seed, sched.EncodeString(), rep.TraceString(), rep.FlightString())
			}
			// Every run must actually exercise the fault space the
			// schedule guarantees: at least one crash-recovery cycle
			// and at least one partition/heal cycle.
			if rep.Crashes < 1 {
				t.Errorf("no crash applied (schedule guarantees ≥1)")
			}
			if rep.Restarts < rep.Crashes {
				t.Errorf("crashes=%d but restarts=%d — some site never recovered",
					rep.Crashes, rep.Restarts)
			}
			if rep.Partitions < 1 {
				t.Errorf("no partition applied (schedule guarantees ≥1)")
			}
			if rep.Heals < rep.Partitions {
				t.Errorf("partitions=%d but heals=%d", rep.Partitions, rep.Heals)
			}
			// Barriers crossed mid-outage (a held-down site) check the
			// outage bounds instead of the invariant families; every
			// round still ends in exactly one of the two.
			if rep.InvariantChecks+rep.DegradedBarriers != sched.Rounds {
				t.Errorf("invariant checks = %d + degraded barriers = %d, want %d rounds total",
					rep.InvariantChecks, rep.DegradedBarriers, sched.Rounds)
			}
			if sched.has(EvPeerDown) && rep.PeerOutages < 1 {
				t.Errorf("schedule holds an EvPeerDown but no outage applied")
			}
			if rep.Committed == 0 {
				t.Errorf("workload committed nothing — cluster dead under chaos?")
			}
			t.Logf("%s", rep)
		})
	}
}

// TestSabotageProducesFlightDump forces one invariant violation per
// row at the final barrier of one schedule, once every site is up and
// drained, and checks the failure artifacts: the run must fail the
// row's own family — conservation, and each family that reads the
// logs — and the report must carry a readable flight-recorder dump of
// what the cluster was doing beforehand.
func TestSabotageProducesFlightDump(t *testing.T) {
	for _, tc := range []struct {
		name     string
		want     string // the violation, after "chaos seed 7 round N: "
		sabotage func(t *testing.T, c *dvp.Cluster)
	}{{
		// 7 phantom units of item/0 in site 1's store, bypassing the
		// log: no transaction explains them.
		name:     "conservation",
		want:     `conservation: item item/0 global total`,
		sabotage: func(t *testing.T, c *dvp.Cluster) { applyUnlogged(t, c, 1, 7) },
	}, {
		// A copy of a record that accepts a Vm, appended to the same
		// log: the stable history accepts that Vm twice.
		name:     "exactly-once",
		want:     `exactly-once: site \d+ log accepts Vm \(from=\S+ seq=\d+\) twice`,
		sabotage: copyAcceptance,
	}, {
		// Site 1 takes an ack from site 2 one past anything site 2's
		// log accepts from it.
		name: "no ack ahead of the log",
		want: `exactly-once: site \S+ holds a cumulative ack of \d+ from site 2, .* an ack ran ahead of the log`,
		sabotage: func(t *testing.T, c *dvp.Cluster) {
			vm := c.SiteEngine(1).VM()
			vm.OnAck(2, vm.CumAck(2)+1)
		},
	}, {
		// 3 units of item/0 move from the site holding most of it to
		// another, in both stores and in neither log: conservation
		// holds, and the two stores no longer match their logs.
		name: "idempotence",
		want: `idempotence: site \d+ item/0 rebuilt-from-log=\d+ live=\d+`,
		sabotage: func(t *testing.T, c *dvp.Cluster) {
			from := 1
			for i := 2; i <= c.Sites(); i++ {
				if c.Quota(i, "item/0") > c.Quota(from, "item/0") {
					from = i
				}
			}
			applyUnlogged(t, c, from, -3)
			applyUnlogged(t, c, from%c.Sites()+1, 3)
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Build(7), Options{Sabotage: func(c *dvp.Cluster) { tc.sabotage(t, c) }})
			if err == nil {
				t.Fatal("sabotaged run passed its barriers — invariant checking is broken")
			}
			if !regexp.MustCompile(`^chaos seed 7 round \d+: ` + tc.want).MatchString(err.Error()) {
				t.Errorf("expected a violation matching %q, got: %v", tc.want, err)
			}
			if len(rep.FlightDump) == 0 {
				t.Fatal("violation produced no flight-recorder dump")
			}
			dump := rep.FlightString()
			// Readability: every line is "HH:MM:SS.micros site kind detail".
			for i, line := range rep.FlightDump {
				if !flightLineRE.MatchString(line) {
					t.Fatalf("flight line %d unreadable: %q", i, line)
				}
			}
			// The dump must show real cluster activity, not just be
			// non-empty: every site's recovery and start are present in a
			// chaos run.
			for _, kind := range []string{"recover", "site-up"} {
				if !strings.Contains(dump, kind) {
					t.Errorf("flight dump missing %q events:\n%s", kind, clip(dump, 2000))
				}
			}
		})
	}
}

// applyUnlogged adds delta to item/0 in site i's live store, bypassing
// the log.
func applyUnlogged(t *testing.T, c *dvp.Cluster, i int, delta dvp.Value) {
	t.Helper()
	s := c.SiteEngine(i)
	if _, err := s.DB().ApplyAll(s.LogLastLSN()+1_000_000, []wal.Action{{Item: "item/0", Delta: delta}}); err != nil {
		t.Fatalf("sabotage apply: %v", err)
	}
}

// copyAcceptance appends to a site's log a copy of the last record in
// it that accepts a Vm.
func copyAcceptance(t *testing.T, c *dvp.Cluster) {
	t.Helper()
	for i := 1; i <= c.Sites(); i++ {
		log := c.SiteEngine(i).Log()
		var last *wal.Record
		if err := log.Scan(1, func(rec wal.Record) error {
			if refs, err := wal.Accepted(rec); err != nil || len(refs) == 0 {
				return err
			}
			last = &wal.Record{Kind: rec.Kind, Data: slices.Clone(rec.Data)}
			return nil
		}); err != nil {
			t.Fatalf("sabotage scan: %v", err)
		}
		if last != nil {
			if _, err := log.Append(last.Kind, last.Data); err != nil {
				t.Fatalf("sabotage append: %v", err)
			}
			return
		}
	}
	t.Fatal("sabotage: no site's log accepts a Vm")
}

var flightLineRE = regexp.MustCompile(`^\d{2}:\d{2}:\d{2}\.\d{6} s\d+\s+[a-z-]+`)

// clip bounds a dump string for test logs.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// TestCrashInCheckpointFires runs a hand-built schedule whose only
// mid-round fault is a crash-in-checkpoint trap on an up site: the
// trap must actually fire (checkpoint written, compaction skipped,
// site killed), the barrier must recover the site through §7 replay —
// starting from that very checkpoint with the records it summarizes
// still in the log — and every invariant must hold.
func TestCrashInCheckpointFires(t *testing.T) {
	sched := &Schedule{
		Seed:    99,
		Sites:   3,
		Items:   2,
		Total:   180,
		Rounds:  2,
		RoundMS: 120,
		Events: []Event{
			{Round: 1, AtMS: 40, Kind: EvCrashInCheckpoint, Site: 2},
			{Round: 2, AtMS: 30, Kind: EvPartition, Groups: [][]int{{1}, {2, 3}}},
			{Round: 2, AtMS: 70, Kind: EvHeal},
		},
	}
	rep, err := Run(sched, Options{})
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s\nflight recorder:\n%s",
			err, rep.TraceString(), rep.FlightString())
	}
	if rep.CheckpointCrashes != 1 {
		t.Fatalf("checkpoint crashes = %d, want 1 (trap on an up site must fire)\ntrace:\n%s",
			rep.CheckpointCrashes, rep.TraceString())
	}
	if rep.Restarts < rep.Crashes {
		t.Errorf("crashes=%d restarts=%d — the trapped site never recovered",
			rep.Crashes, rep.Restarts)
	}
	if rep.InvariantChecks != sched.Rounds {
		t.Errorf("invariant checks = %d, want %d", rep.InvariantChecks, sched.Rounds)
	}
}

// TestCrashInFlushFiresInline arms a crash-in-flush trap on a site
// whose committers run most of its forces themselves (the chaos
// cluster's logs are memory logs, cheaper to force than to hand to the
// flusher), so the trap most likely fires inside a committer's force:
// the crash it starts on a fresh goroutine must not deadlock on that
// committer, and the site recovers with every invariant holding.
func TestCrashInFlushFiresInline(t *testing.T) {
	sched := &Schedule{
		Seed:    98,
		Sites:   3,
		Items:   2,
		Total:   180,
		Rounds:  2,
		RoundMS: 120,
		Events: []Event{
			{Round: 1, AtMS: 40, Kind: EvCrashInFlush, Site: 2},
			{Round: 2, AtMS: 30, Kind: EvPartition, Groups: [][]int{{1}, {2, 3}}},
			{Round: 2, AtMS: 70, Kind: EvHeal},
		},
	}
	var byCommitter, byFlusher uint64
	rep, err := Run(sched, Options{OnQuiescent: func(c *dvp.Cluster) {
		byCommitter = c.Metrics().SumCounters("dvp_wal_group_flushes_total", "site", ident.SiteID(2).String(), "by", "committer")
		byFlusher = c.Metrics().SumCounters("dvp_wal_group_flushes_total", "site", ident.SiteID(2).String(), "by", "flusher")
	}})
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s\nflight recorder:\n%s",
			err, rep.TraceString(), rep.FlightString())
	}
	if rep.FlushCrashes != 1 {
		t.Fatalf("flush crashes = %d, want 1 (trap on an up site must fire)\ntrace:\n%s",
			rep.FlushCrashes, rep.TraceString())
	}
	if rep.Restarts < rep.Crashes {
		t.Errorf("crashes=%d restarts=%d — the trapped site never recovered",
			rep.Crashes, rep.Restarts)
	}
	if rep.InvariantChecks != sched.Rounds {
		t.Errorf("invariant checks = %d, want %d", rep.InvariantChecks, sched.Rounds)
	}
	if byCommitter <= byFlusher {
		t.Errorf("site 2's committers ran %d forces and its flusher %d: want most of them run inline", byCommitter, byFlusher)
	}
}

// TestPeerDownLongOutage runs a hand-built schedule whose centerpiece
// is a long outage: site 2 dies in round 1 and stays dead through the
// round-1 barrier (degraded — outage bounds only) while the workload
// keeps running at the survivors, then recovers at the round-2 barrier
// and the remaining rounds' full barriers prove complete catch-up
// (drain to zero pending Vm plus every invariant family). The bounds
// checked at the degraded barrier are the PR's acceptance conditions
// in miniature: bounded retransmission-set memory and rate-bounded
// sweeps toward the dead peer.
func TestPeerDownLongOutage(t *testing.T) {
	sched := &Schedule{
		Seed:    123,
		Sites:   3,
		Items:   2,
		Total:   180,
		Rounds:  3,
		RoundMS: 120,
		Events: []Event{
			{Round: 1, AtMS: 30, Kind: EvPeerDown, Site: 2, A: 1},
		},
	}
	rep, err := Run(sched, Options{})
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s\nflight recorder:\n%s",
			err, rep.TraceString(), rep.FlightString())
	}
	if rep.PeerOutages != 1 {
		t.Fatalf("peer outages = %d, want 1\ntrace:\n%s", rep.PeerOutages, rep.TraceString())
	}
	if rep.DegradedBarriers != 1 {
		t.Errorf("degraded barriers = %d, want 1 (round 1 crossed mid-outage)", rep.DegradedBarriers)
	}
	if rep.InvariantChecks != sched.Rounds-1 {
		t.Errorf("invariant checks = %d, want %d (all but the degraded barrier)",
			rep.InvariantChecks, sched.Rounds-1)
	}
	if rep.Restarts < rep.Crashes {
		t.Errorf("crashes=%d restarts=%d — the held site never recovered",
			rep.Crashes, rep.Restarts)
	}
	if rep.Committed == 0 {
		t.Error("survivors committed nothing during the outage")
	}
}

// TestRunFromDecodedSchedule closes the replay loop: a schedule that
// round-tripped through the text encoding must drive a full run.
func TestRunFromDecodedSchedule(t *testing.T) {
	orig := Build(42)
	decoded, err := DecodeSchedule(stringsReader(orig.EncodeString()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(decoded, Options{})
	if err != nil {
		t.Fatalf("replayed schedule failed: %v\ntrace:\n%s", err, rep.TraceString())
	}
	if rep.Crashes < 1 || rep.Partitions < 1 {
		t.Errorf("replayed run crashes=%d partitions=%d, want ≥1 each", rep.Crashes, rep.Partitions)
	}
}

// The durability audit checks a commit by its record and a read that
// wrote none by its fence: an acknowledged commit must name a commit
// record still in the log, and a recordless read the record — of any
// kind — it waited to see stable.
func TestDurabilityChecksRecordlessReadsByTheirFence(t *testing.T) {
	c, err := dvp.NewCluster(dvp.Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateItem("item/0", 10); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[wal.RecordKind]uint64)
	if err := c.SiteEngine(1).Log().Scan(1, func(r wal.Record) error {
		kinds[r.Kind] = r.LSN
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	commit, clock := kinds[wal.RecCommit], kinds[wal.RecClock]
	if commit == 0 || clock == 0 {
		t.Fatalf("site 1 logged %v, want a placement and a clock reservation", kinds)
	}
	last := c.SiteEngine(1).LogLastLSN()
	audits, err := (&runner{sched: &Schedule{Sites: 1}, c: c}).auditLogs()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ci   dvp.CommitInfo
		ok   bool
	}{
		{"commit by its record", dvp.CommitInfo{CommitLSN: commit}, true},
		{"read fenced on a reservation", dvp.CommitInfo{CommitLSN: clock, Recordless: true}, true},
		{"read with nothing to fence", dvp.CommitInfo{Recordless: true}, true},
		{"commit at a reservation", dvp.CommitInfo{CommitLSN: clock}, false},
		{"read fenced past the log", dvp.CommitInfo{CommitLSN: last + 1, Recordless: true}, false},
	} {
		tc.ci.Site = 1
		r := &runner{sched: &Schedule{Sites: 1}, c: c, committed: []dvp.CommitInfo{tc.ci}}
		if err := r.checkDurability(audits); (err == nil) != tc.ok {
			t.Errorf("%s: audit returned %v", tc.name, err)
		}
	}
}

// A corpus capture that cannot read a site's log fails rather than
// capture what it could: here a commit whose accepted list does not
// decode.
func TestCaptureFailsOnAnUnreadableLog(t *testing.T) {
	c, err := dvp.NewCluster(dvp.Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payloads := make(map[string][]wal.Record)
	if err := capturePayloads(c, 1, payloads); err != nil || len(payloads["clock"]) != 1 {
		t.Fatalf("capture of a sound log: %v, %d reservation(s)", err, len(payloads["clock"]))
	}
	if _, err := c.SiteEngine(1).Log().Append(wal.RecCommit, []byte{0, 1, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := capturePayloads(c, 1, payloads); err == nil {
		t.Error("capture read past a commit record it cannot decode")
	}
}
