package dvp_test

import (
	"fmt"
	"time"

	"dvp"
)

// The paper's §3 scenario: 100 seats split over four sites, local
// reservations, and redistribution when a site runs short.
func Example() {
	c, err := dvp.NewCluster(dvp.Config{Sites: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer c.Close()

	c.CreateItem("flight/A", 100) // 25 per site

	// Local: uses site 1's quota only.
	res := c.At(1).Reserve("flight/A", 3)
	fmt.Println("local reserve:", res.Status, "requests:", res.RequestsSent)

	// Oversized for one site: pulls quota from peers via Vm.
	res = c.At(2).Reserve("flight/A", 40)
	fmt.Println("big reserve:", res.Status)

	// Exact read: gathers every share first. Quiesce so no granted
	// value is still mid-flight between two other sites — a full read
	// sees every share, but value inside an undelivered Vm is at
	// neither end yet (serializable, just not what we want to print).
	c.Quiesce(time.Second)
	read := c.At(3).RunRetry(dvp.NewTxn().Read("flight/A"), 3)
	n, _ := dvp.ReadValue(read, "flight/A")
	fmt.Println("seats left:", n)

	// Every site reports into the cluster's metrics registry as it
	// goes; sum the committed-transaction counter across sites.
	fmt.Println("committed per metrics:",
		c.Metrics().SumCounters("dvp_site_txn_total", "outcome", "committed"))
	// Output:
	// local reserve: committed requests: 0
	// big reserve: committed
	// seats left: 57
	// committed per metrics: 3
}

// Availability through a network partition: both halves keep
// committing against their local quotas.
func Example_partition() {
	c, err := dvp.NewCluster(dvp.Config{Sites: 4, Seed: 2})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	c.CreateItem("sku/hot", 400)

	c.PartitionGroups([]int{1, 2}, []int{3, 4})
	left := c.At(1).Reserve("sku/hot", 10)
	right := c.At(4).Reserve("sku/hot", 10)
	fmt.Println("left half:", left.Status)
	fmt.Println("right half:", right.Status)

	c.Heal()
	c.Quiesce(time.Second)
	fmt.Println("total after heal:", c.GlobalTotal("sku/hot"))
	// Output:
	// left half: committed
	// right half: committed
	// total after heal: 380
}

// Crash and independent recovery: the site restarts from its own log,
// with no communication, and resumes with its durable state intact.
func Example_recovery() {
	c, err := dvp.NewCluster(dvp.Config{Sites: 2, Seed: 3})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	c.CreateItem("acct", 100) // 50 per site

	c.At(1).Reserve("acct", 20)
	c.Crash(1)
	if err := c.Restart(1); err != nil {
		panic(err)
	}
	fmt.Println("recovered quota:", c.Quota(1, "acct"))
	fmt.Println("network calls during recovery:", c.LastRecovery(1).NetworkCalls)
	// Output:
	// recovered quota: 30
	// network calls during recovery: 0
}

// Redistribution-only (Rds) transactions, §5: move value toward
// demand before demand arrives, without changing the item's total.
func Example_sendValue() {
	c, err := dvp.NewCluster(dvp.Config{Sites: 4, Seed: 4})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	c.CreateItemShares("x", []dvp.Value{100, 0, 0, 0})

	for to := 2; to <= 4; to++ {
		if err := c.SendValue("x", 1, to, 25); err != nil {
			panic(err)
		}
	}
	c.Quiesce(time.Second)
	fmt.Println(c.Quota(1, "x"), c.Quota(2, "x"), c.Quota(3, "x"), c.Quota(4, "x"))
	// Output:
	// 25 25 25 25
}
