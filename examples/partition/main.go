// Split-brain, side by side (paper §1–§3): the same workload runs
// against a DvP cluster and a traditional fully-replicated 2PC
// cluster while the network partitions and heals.
//
// The output is two availability timelines. DvP keeps committing in
// both halves (its transactions never span sites); the 2PC system —
// which must lock and write every replica — commits nothing until the
// network heals, and its in-doubt participants sit blocked on their
// locks in the meantime.
//
// Run with: go run ./examples/partition
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvp"
	"dvp/internal/baseline/twopc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/simnet"
	"dvp/internal/store"
	"dvp/internal/txn"
	"dvp/internal/wal"
)

const (
	sites   = 4
	ticks   = 12
	tickDur = 250 * time.Millisecond
	partAt  = 4
	healAt  = 8
)

func main() {
	// --- DvP cluster ---------------------------------------------------
	c, err := dvp.NewCluster(dvp.Config{
		Sites: sites, Seed: 11, LogAppendDelay: 200 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	c.CreateItem("flight/A", 1_000_000)

	// --- 2PC cluster, same shape ----------------------------------------
	net2 := simnet.New(simnet.Config{Seed: 11})
	defer net2.Close()
	peers := []ident.SiteID{1, 2, 3, 4}
	var tsites []*twopc.Site
	for _, id := range peers {
		// Each 2PC site logs the way a DvP site does: a group log over
		// one device with the same 200µs force.
		gl := wal.NewGroupLog(wal.NewSlowDevice(wal.NewMemLog(), 200*time.Microsecond), wal.GroupCommitOptions{})
		defer gl.Close()
		s, err := twopc.New(twopc.Config{
			ID: id, Peers: peers,
			Log: gl, DB: store.New(),
			Endpoint:    net2.Endpoint(id),
			LockTimeout: 30 * time.Millisecond,
			VoteTimeout: 60 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Create("flight/A", 1_000_000); err != nil {
			log.Fatal(err)
		}
		tsites = append(tsites, s)
	}
	for _, s := range tsites {
		s.Start()
	}

	// --- clients --------------------------------------------------------
	var dvpCommits, tpcCommits [ticks]int64
	var tick atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sites; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for running(stop) {
				res := c.At(i + 1).Run(dvp.NewTxn().Sub("flight/A", 1).
					Timeout(30 * time.Millisecond))
				if res.Committed() {
					bump(&dvpCommits, tick.Load())
				}
				time.Sleep(time.Millisecond) // client pacing; see F5
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for running(stop) {
				res := tsites[i].Run(&txn.Txn{Ops: []txn.ItemOp{
					{Item: "flight/A", Op: core.Decr{M: 1}},
				}})
				if res.Committed() {
					bump(&tpcCommits, tick.Load())
				}
				time.Sleep(time.Millisecond) // client pacing; see F5
			}
		}(i)
	}

	// --- timeline --------------------------------------------------------
	for t := 0; t < ticks; t++ {
		if t == partAt {
			c.PartitionGroups([]int{1, 2}, []int{3, 4})
			net2.Partition([]ident.SiteID{1, 2}, []ident.SiteID{3, 4})
		}
		if t == healAt {
			c.Heal()
			net2.Heal()
		}
		time.Sleep(tickDur)
		tick.Add(1)
	}
	close(stop)
	wg.Wait()

	// --- report -----------------------------------------------------------
	maxBar := int64(1)
	for t := 0; t < ticks; t++ {
		if v := atomic.LoadInt64(&dvpCommits[t]); v > maxBar {
			maxBar = v
		}
		if v := atomic.LoadInt64(&tpcCommits[t]); v > maxBar {
			maxBar = v
		}
	}
	fmt.Printf("commits per %v tick (partition during ticks %d..%d):\n\n", tickDur, partAt, healAt-1)
	fmt.Println("tick  state        dvp                              2pc")
	for t := 0; t < ticks; t++ {
		state := "healthy"
		if t >= partAt && t < healAt {
			state = "SPLIT 12|34"
		}
		d := atomic.LoadInt64(&dvpCommits[t])
		p := atomic.LoadInt64(&tpcCommits[t])
		fmt.Printf("%3d   %-11s  %-6d %-24s  %-5d %s\n",
			t, state, d, bar(d, maxBar), p, bar(p, maxBar))
	}
	var blocked time.Duration
	for _, s := range tsites {
		blocked += s.Stats().BlockedTime
	}
	fmt.Printf("\n2pc cumulative in-doubt blocked time across sites: %v\n", blocked.Round(time.Millisecond))
	fmt.Println("dvp blocked time: none — no transaction ever waits on another site to commit.")
}

func running(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

func bump(arr *[ticks]int64, t int64) {
	if t >= 0 && t < ticks {
		atomic.AddInt64(&arr[t], 1)
	}
}

func bar(v, maxV int64) string {
	const width = 24
	n := int(v * width / maxV)
	return strings.Repeat("█", n)
}
