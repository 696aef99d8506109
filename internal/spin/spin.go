// Package spin is the stack's one way of taking a contended lock: poll it
// for a bounded time before parking.
//
// sync.Mutex and sync.RWMutex spin only while the caller's P has nothing
// else to run, and a reader<->writer conflict never spins. A goroutine that
// parks on a lock held for a few microseconds is readied by the unlock into
// the unlocker's P, and its own P, now idle, has to steal it back: the
// runtime sleeps before such a steal, and on the ledger's VM that sleep
// lasts about 55 µs, far longer than the hold it waited for. The thin pool's
// thin locks and allocator lock and ioq's queue and scheduler locks are all
// held for that little, so all of them poll first (DESIGN.md, "Locking").
package spin

import (
	"runtime"
	"sync"
	"time"
)

// Budget is how long a contended acquisition polls before it parks. Its
// ceiling is the cost of the park it replaces: on the ledger's VM a park
// plus wake measures 13 µs when the waker finds a thread still spinning and
// ~85 µs when it has to wake a sleeping one, while on RAM the locks that
// poll are held for a few microseconds at most. The budget sits low in that
// range because a poll that fails is pure loss: over a direct image a thin
// lock held by a read or a dummy burst is held through a device transfer
// of hundreds of microseconds (a write's transfer holds the thin's transfer
// guard instead, which only an unmap waits for), and the fresh-write row
// read the same from 10 to 160 µs.
const Budget = 30 * time.Microsecond

// Acquire polls try until it succeeds or Budget has passed and reports
// whether it succeeded. With one P the holder cannot run while the caller
// polls, so there it tries once and leaves the caller to park.
func Acquire(try func() bool) bool {
	if try() {
		return true
	}
	if runtime.GOMAXPROCS(0) == 1 {
		return false
	}
	for start := time.Now(); time.Since(start) < Budget; {
		if try() {
			return true
		}
	}
	return false
}

// Lock takes mu, polling for up to Budget before it parks.
func Lock(mu *sync.Mutex) {
	if !mu.TryLock() && !Acquire(mu.TryLock) {
		mu.Lock()
	}
}
