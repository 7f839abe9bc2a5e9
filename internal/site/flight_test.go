package site

import (
	"testing"
	"time"

	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
)

// TestFlightKeepsRareEventsUnderLoad: a busy site's flight recorder
// still holds its one lock conflict after 5 000 local commits, as many
// forces as a recorder of dvpnode's 1024 slots would drop it behind if
// every force were an event. The rare events are what a dump is for.
func TestFlightKeepsRareEventsUnderLoad(t *testing.T) {
	flight := obs.NewFlight(1024)
	tc := newTestCluster(t, 2, simnet.Config{Seed: 61}, func(i int, c *Config) {
		gl := wal.NewGroupLog(wal.NewMemLog(), wal.GroupCommitOptions{})
		t.Cleanup(func() { gl.Close() })
		if i == 0 {
			gl.SetFlight(flight, c.ID.String())
			c.Flight = flight
		}
		c.Log = gl
	})
	tc.createItem("hot", 0)
	tc.createItem("local", 10_000)
	s := tc.sites[0]
	done := make(chan *txn.Result, 1)
	go func() { done <- s.Run(reserve("hot", 5)) }()
	waitUntil(t, 2*time.Second, "the first txn holds the lock", func() bool { return lockHeld(s, "hot") })
	if res := s.Run(reserve("hot", 1)); res.Status != txn.StatusLockConflict {
		t.Fatalf("second txn on the held item: %v, want a lock conflict", res.Status)
	}
	<-done

	for i := 0; i < 5000; i++ {
		if res := s.Run(reserve("local", 1)); !res.Committed() {
			t.Fatalf("local commit %d: %v", i, res.Status)
		}
	}
	for _, ev := range flight.Last(1024) {
		if ev.Kind == "lock-conflict" {
			return
		}
	}
	t.Errorf("the lock conflict is gone from the flight recorder's last 1024 events after 5 000 commits")
}
