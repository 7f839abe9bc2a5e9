package site

import (
	"strings"
	"testing"
	"time"

	"dvp/internal/obs"
	"dvp/internal/simnet"
	"dvp/internal/txn"
	"dvp/internal/vclock"
)

// TestFlightKeepsRareEventsUnderLoad: a busy site's flight recorder
// still holds its one lock conflict after a load that would push it out
// of dvpnode's 1024 slots if the load's per-operation events were
// recorded — 5 000 local commits, as many forces, or 1 000 shortfall
// writes, each a grant at the donor and an acceptance at the writer,
// both sites recording into one recorder as an in-process cluster's do.
// The rare events are what a dump is for.
func TestFlightKeepsRareEventsUnderLoad(t *testing.T) {
	rows := []struct {
		name  string
		n     int
		write *txn.Txn
	}{
		{"local", 5000, reserve("local", 1)},
		{"shortfall", 1000, reserve("short", 1)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			flight := obs.NewFlight(1024)
			tc := newTestCluster(t, 2, simnet.Config{Seed: 61}, func(i int, c *Config) { c.Flight = flight })
			tc.createItem("hot", 0)
			tc.createItem("local", 10_000)
			// Site 1 holds none of "short": each write there is short by
			// its whole amount and takes it from site 2.
			place(t, tc.sites[0], "short", 0)
			place(t, tc.sites[1], "short", 10_000)
			s := tc.sites[0]
			done := make(chan *txn.Result, 1)
			go func() { done <- s.Run(reserve("hot", 5)) }()
			waitUntil(t, 2*time.Second, "the first txn holds the lock", func() bool { return lockHeld(s, "hot") })
			if res := s.Run(reserve("hot", 1)); res.Status != txn.StatusLockConflict {
				t.Fatalf("second txn on the held item: %v, want a lock conflict", res.Status)
			}
			<-done

			for i := 0; i < row.n; i++ {
				if res := s.Run(row.write); !res.Committed() {
					t.Fatalf("%s write %d: %v", row.name, i, res.Status)
				}
			}
			for _, ev := range flight.Last(1024) {
				if ev.Kind == "lock-conflict" {
					return
				}
			}
			t.Errorf("the lock conflict is gone from the flight recorder's last 1024 events after %d %s writes", row.n, row.name)
		})
	}
}

// A site on a virtual clock stamps its flight events with that clock,
// the one its traces and histograms read: the FLIGHT dump of its
// start-up and of its recovery shows the virtual instant, not the wall
// clock's.
func TestFlightReadsTheSiteClock(t *testing.T) {
	at := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	clock := vclock.NewVirtual(at)
	flight := obs.NewFlight(64)
	tc := newTestCluster(t, 2, simnet.Config{Seed: 62}, func(i int, c *Config) {
		if i == 0 {
			c.Clock = clock
			c.Flight = flight
		}
	})
	s := tc.sites[0]
	s.Crash()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	if err := flight.WriteText(&dump, 64); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, ev := range flight.Last(64) {
		kinds[ev.Kind] = true
		if got := time.Unix(0, ev.AtUnixNano); !got.Equal(at) {
			t.Errorf("%s event at %v, want the site's virtual %v", ev.Kind, got.UTC(), at)
		}
	}
	for _, k := range []string{"recover", "site-up", "site-down"} {
		if !kinds[k] {
			t.Errorf("no %s event in the dump:\n%s", k, dump.String())
		}
	}
	if want := "04:05:06.000000"; !strings.Contains(dump.String(), want) {
		t.Errorf("FLIGHT lines do not carry the virtual instant %s:\n%s", want, dump.String())
	}
	if got := s.LastRecovery().Elapsed; got != 0 {
		t.Errorf("recovery Elapsed = %v on a clock that did not move, want 0", got)
	}
}
