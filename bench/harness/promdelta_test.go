package harness

import "testing"

func snap(t *testing.T, lines ...string) Snapshot {
	t.Helper()
	s, err := ParseSnapshot(lines)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeltaSumsMatchingSeries(t *testing.T) {
	before := snap(t,
		"# TYPE dvp_net_msgs_out_total counter",
		`dvp_net_msgs_out_total{peer="s2",site="s1"} 10`,
		`dvp_net_msgs_out_total{peer="s3",site="s1"} 20`,
		`dvp_net_msgs_out_total_extra{site="s1"} 1000`,
		`dvp_site_txn_total{outcome="committed",site="s1"} 5`,
		`dvp_site_txn_total{outcome="timeout",site="s1"} 1`,
		`dvp_wal_records_total 3`,
	)
	after := snap(t,
		`dvp_net_msgs_out_total{peer="s2",site="s1"} 16`,
		`dvp_net_msgs_out_total{peer="s3",site="s1"} 21`,
		`dvp_net_msgs_out_total_extra{site="s1"} 5000`,
		`dvp_site_txn_total{outcome="committed",site="s1"} 9`,
		`dvp_site_txn_total{outcome="timeout",site="s1"} 1`,
		`dvp_site_txn_total{outcome="lock-conflict",site="s1"} 2`,
		`dvp_wal_records_total 7`,
	)
	if got := Delta(before, after, "dvp_net_msgs_out_total"); got != 7 {
		t.Errorf("all peers: %g, want 7 (a longer metric name must not match)", got)
	}
	if got := Delta(before, after, "dvp_net_msgs_out_total", `peer="s2"`); got != 6 {
		t.Errorf("one peer: %g, want 6", got)
	}
	if got := Delta(before, after, "dvp_site_txn_total", `outcome="lock-conflict"`); got != 2 {
		t.Errorf("series absent before counts from zero: %g, want 2", got)
	}
	if got := Delta(before, after, "dvp_wal_records_total"); got != 4 {
		t.Errorf("unlabelled series: %g, want 4", got)
	}
	if after.Series != 7 {
		t.Errorf("Series = %d, want 7", after.Series)
	}
}

// A node SIGKILLed and respawned between two snapshots restarts its
// counters at zero; what it counted since is the new value.
func TestDeltaAfterRestartIsNotNegative(t *testing.T) {
	before := snap(t, `dvp_wal_records_total{kind="commit",site="s1"} 70000`, `dvp_wal_records_total{kind="applied",site="s1"} 70000`)
	after := snap(t, `dvp_wal_records_total{kind="commit",site="s1"} 12`, `dvp_wal_records_total{kind="applied",site="s1"} 70003`)
	if got := Delta(before, after, "dvp_wal_records_total"); got != 12+3 {
		t.Errorf("Delta = %g, want 15", got)
	}
}

func TestSnapshotSumReadsGauges(t *testing.T) {
	s := snap(t, `dvp_vmsg_pending{peer="s2",site="s1"} 2`, `dvp_vmsg_pending{peer="s3",site="s1"} 1`, `dvp_vmsg_pending_other 9`)
	if got := s.Sum("dvp_vmsg_pending"); got != 3 {
		t.Errorf("Sum = %g, want 3", got)
	}
}
