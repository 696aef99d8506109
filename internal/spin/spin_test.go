package spin

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestAcquireBudget pins the helper's three outcomes: it stops at the first
// success, it gives up after about Budget, and on one P it tries exactly
// once (the holder cannot run while the caller polls), so the caller parks
// at once.
func TestAcquireBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	polls := 0
	if !Acquire(func() bool { polls++; return polls == 100 }) || polls != 100 {
		t.Errorf("succeeding on the 100th poll: polls = %d", polls)
	}
	polls = 0
	start := time.Now()
	ok := Acquire(func() bool { polls++; return false })
	if took := time.Since(start); ok || polls < 2 || took < Budget {
		t.Errorf("never succeeding: ok %v after %d polls in %v, want false after at least %v", ok, polls, took, Budget)
	}

	runtime.GOMAXPROCS(1)
	polls = 0
	if Acquire(func() bool { polls++; return false }) || polls != 1 {
		t.Errorf("GOMAXPROCS 1: %d polls, want exactly 1", polls)
	}
}

// TestLockOutlastsBudget: a Lock that meets a mutex held for several
// budgets gives up polling, parks, and takes the mutex once it is free, at
// one P and at several.
func TestLockOutlastsBudget(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var mu sync.Mutex
			mu.Lock()
			got := make(chan struct{})
			go func() {
				Lock(&mu)
				close(got)
				mu.Unlock()
			}()
			select {
			case <-got:
				t.Fatalf("procs=%d: Lock returned while the mutex was held", procs)
			case <-time.After(4 * Budget):
			}
			mu.Unlock()
			<-got
		}()
	}
}
