package lock

import (
	"sync"
	"testing"

	"dvp/internal/ident"
)

func TestNoWaitBasicConflict(t *testing.T) {
	l := NewNoWait()
	if !l.TryLock(1, "a") {
		t.Fatal("first lock must succeed")
	}
	if l.TryLock(2, "a") {
		t.Fatal("conflicting lock must fail immediately (no-wait)")
	}
	if !l.TryLock(1, "a") {
		t.Fatal("re-lock by holder must succeed")
	}
	l.Unlock(1, "a")
	if !l.TryLock(2, "a") {
		t.Fatal("lock after release must succeed")
	}
}

func TestNoWaitUnlockWrongTxnIgnored(t *testing.T) {
	l := NewNoWait()
	l.TryLock(1, "a")
	l.Unlock(2, "a") // not the holder
	if l.TryLock(2, "a") {
		t.Error("unlock by non-holder must be ignored")
	}
}

func TestNoWaitReleaseAll(t *testing.T) {
	l := NewNoWait()
	for _, it := range []ident.ItemID{"x", "y", "z"} {
		l.TryLock(3, it)
	}
	l.TryLock(4, "w")
	l.ReleaseAll(3)
	if !l.TryLock(5, "x") || !l.TryLock(5, "y") {
		t.Error("ReleaseAll left locks behind")
	}
	if l.TryLock(5, "w") {
		t.Error("ReleaseAll released another txn's lock")
	}
}

func TestNoWaitClear(t *testing.T) {
	l := NewNoWait()
	l.TryLock(1, "a")
	l.TryLock(2, "b")
	l.Clear()
	if l.Locked() != 0 {
		t.Error("Clear left locks behind (§7 step 1)")
	}
	if !l.TryLock(3, "a") {
		t.Error("lock after Clear must succeed")
	}
}

func TestNoWaitConcurrentExclusion(t *testing.T) {
	l := NewNoWait()
	const workers = 16
	var acquired int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if l.TryLock(ident.TxnID(w+1), "hot") {
				mu.Lock()
				acquired++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if acquired != 1 {
		t.Errorf("%d goroutines acquired an exclusive lock", acquired)
	}
}

func TestNoWaitPartialUnlockKeepsOthers(t *testing.T) {
	l := NewNoWait()
	l.TryLock(1, "a")
	l.TryLock(1, "b")
	l.Unlock(1, "a")
	if l.TryLock(3, "b") {
		t.Error("b should still be held")
	}
	// a is free; ReleaseAll afterwards must not panic or release a's
	// new holder.
	if !l.TryLock(2, "a") {
		t.Error("a should be free")
	}
	l.ReleaseAll(1)
	if l.TryLock(3, "a") {
		t.Error("ReleaseAll touched a lock it no longer held")
	}
}
