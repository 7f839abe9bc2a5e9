package wal

import (
	"sync"
	"testing"
	"time"
)

func TestSlowLogAddsLatency(t *testing.T) {
	l := NewSlowLog(NewMemLog(), 5*time.Millisecond, nil)
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
	l := NewSlowLog(inner, 0, nil)
	if l != Log(inner) {
		t.Error("zero delay must return the inner log unchanged")
	}
}

func TestSlowLogConcurrentAppendsOverlap(t *testing.T) {
	// The latency models independent I/O: k concurrent appenders must
	// finish in ~1 delay, not k delays.
	l := NewSlowLog(NewMemLog(), 20*time.Millisecond, nil)
	const k = 8
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
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("%d concurrent appends took %v — waits did not overlap", k, elapsed)
	}
	if l.LastLSN() != k {
		t.Errorf("LastLSN = %d", l.LastLSN())
	}
}

func TestSlowDeviceSerializesForces(t *testing.T) {
	// A device forces one write at a time: k concurrent appends take
	// ~k delays, not ~1 — the cost profile group commit amortizes.
	l := NewSlowDevice(NewMemLog(), 10*time.Millisecond, nil)
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
	l := NewSlowLog(NewMemLog(), time.Microsecond, nil)
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
