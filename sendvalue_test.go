package dvp

import (
	"testing"
	"time"
)

func TestSendValueMovesQuota(t *testing.T) {
	c := mustCluster(t, Config{Sites: 3, Seed: 20})
	c.CreateItemShares("x", []Value{30, 0, 0})
	if err := c.SendValue("x", 1, 2, 10); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(time.Second)
	if c.Quota(1, "x") != 20 || c.Quota(2, "x") != 10 {
		t.Errorf("quotas = %d/%d, want 20/10", c.Quota(1, "x"), c.Quota(2, "x"))
	}
	if got := c.GlobalTotal("x"); got != 30 {
		t.Errorf("N = %d, want 30 (Rds must not change the value)", got)
	}
}

func TestSendValueValidation(t *testing.T) {
	c := mustCluster(t, Config{Sites: 2, Seed: 21})
	c.CreateItemShares("x", []Value{5, 0})
	if err := c.SendValue("x", 1, 2, 10); err == nil {
		t.Error("transfer beyond quota accepted")
	}
	if err := c.SendValue("x", 1, 1, 1); err == nil {
		t.Error("self transfer accepted")
	}
	if err := c.SendValue("x", 1, 2, 0); err == nil {
		t.Error("zero transfer accepted")
	}
	if err := c.SendValue("x", 1, 99, 1); err == nil {
		t.Error("out-of-range destination accepted")
	}
	c.Crash(1)
	if err := c.SendValue("x", 1, 2, 1); err == nil {
		t.Error("transfer from a down site accepted")
	}
}

func TestSendValueSurvivesPartition(t *testing.T) {
	c := mustCluster(t, Config{Sites: 2, Seed: 22, RetransmitEvery: 5 * time.Millisecond})
	c.CreateItemShares("x", []Value{20, 0})
	c.SetLink(1, 2, false)
	if err := c.SendValue("x", 1, 2, 7); err != nil {
		t.Fatal(err) // the Rds commits locally; delivery is eventual
	}
	if got := c.GlobalTotal("x"); got != 20 {
		t.Errorf("N = %d with Vm stuck in flight, want 20", got)
	}
	c.SetLink(1, 2, true)
	c.Quiesce(2 * time.Second)
	if c.Quota(2, "x") != 7 {
		t.Errorf("destination quota = %d, want 7 after heal", c.Quota(2, "x"))
	}
}
