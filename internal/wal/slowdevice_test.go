package wal

import (
	"sync"
	"testing"
	"time"
)

func TestSlowLogAddsLatency(t *testing.T) {
	l := NewSlowDevice(NewMemLog(), 5*time.Millisecond)
	start := time.Now()
	if _, err := l.Append(RecCommit, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("append took %v, want ≥5ms", elapsed)
	}
}

func TestSlowLogZeroDelayIsPassthrough(t *testing.T) {
	inner := NewMemLog()
	l := NewSlowDevice(inner, 0)
	if l != Device(inner) {
		t.Error("zero delay must return the inner log unchanged")
	}
}

func TestSlowDeviceSerializesForces(t *testing.T) {
	// A device forces one write at a time: k concurrent appends take
	// ~k delays, not ~1 — the cost profile group commit amortizes.
	l := NewSlowDevice(NewMemLog(), 10*time.Millisecond)
	const k = 5
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Append(RecCommit, nil)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < (k-1)*10*time.Millisecond {
		t.Errorf("%d concurrent appends took %v — forces did not serialize", k, elapsed)
	}
	if l.LastLSN() != k {
		t.Errorf("LastLSN = %d", l.LastLSN())
	}
	// One batch pays one delay for the whole group.
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Kind: RecCommit}
	}
	start = time.Now()
	if _, err := l.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("8-record batch took %v, want ~1 delay", elapsed)
	}
}

func TestSlowLogDelegates(t *testing.T) {
	l := NewSlowDevice(NewMemLog(), time.Microsecond)
	l.Append(RecApplied, []byte("a"))
	var n int
	l.Scan(1, func(r Record) error { n++; return nil })
	if n != 1 {
		t.Errorf("Scan visited %d", n)
	}
	if err := l.Close(); err != nil {
		t.Error(err)
	}
}
