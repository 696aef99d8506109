package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

// TestMeteredNoiseChargedOnce pins the dummy-noise charge of a metered
// system under concurrency. Writers fresh-writing the public volume at once
// set off dummy bursts inside each other's calls, and whichever call sees a
// burst's blocks first charges them: every noise block must be charged
// exactly once. Every public write goes through the metered crypt view, so
// the meter's crypto bytes are the public payload plus one block per dummy
// block written — no more (a charge mark moved backwards charges blocks
// twice), no less. Crypto is the meter's only cost, at one byte per
// nanosecond, so the clock reads the crypto bytes charged. Run under -race
// at GOMAXPROCS 1 and 4.
func TestMeteredNoiseChargedOnce(t *testing.T) {
	clock := new(vclock.Clock)
	meter := vclock.NewMeter(clock, vclock.Profile{CryptBps: 1e9})
	cfg := testConfig(61)
	cfg.Meter = meter
	cfg.PolicyRefreshEvery = 1 // a fresh stored_rand per decision: bursts fire often
	sys, err := Setup(storage.NewMemDevice(blockSize, 8192), cfg, "decoy-pass", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	crypto0, dummy0 := clock.Now(), sys.Pool().DummyBlocksWritten()

	const workers, writes, blocks = 4, 40, 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, blocks*blockSize)
			for i := 0; i < writes; i++ {
				off := uint64((w*writes + i) * blocks)
				if err := pub.SubmitWrite(off, buf).Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	dummy := sys.Pool().DummyBlocksWritten() - dummy0
	if dummy == 0 {
		t.Fatal("no dummy burst fired: the workload does not exercise the noise charge")
	}
	payload := uint64(workers * writes * blocks * blockSize)
	// Float rounding loses under a nanosecond per charge; a block charged
	// twice, or never, is off by a whole block.
	got, want := int64(clock.Now()-crypto0), int64(payload+dummy*blockSize)
	if d := got - want; d < -blockSize/2 || d > blockSize/2 {
		t.Fatalf("crypto bytes charged = %d, want %d (payload %d + %d dummy blocks)", got, want, payload, dummy)
	}
}

// TestNoiseMarkNeverMovesBack pins the charge mark itself: a caller that
// read the dummy count before a faster one moved the mark past it must
// charge nothing and leave the mark where it is, so every block is counted
// once however the callers interleave.
func TestNoiseMarkNeverMovesBack(t *testing.T) {
	var mark atomic.Uint64
	var total uint64
	for _, n := range []uint64{3, 6, 5, 2, 7, 7, 9, 8} {
		total += advance(&mark, n)
	}
	if total != 9 || mark.Load() != 9 {
		t.Fatalf("charged %d, mark %d; want 9 and 9", total, mark.Load())
	}

	// Concurrently: every caller reports a count it saw at some point,
	// often stale; the charges still sum to the final count exactly.
	mark.Store(0)
	var seen, charged atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				charged.Add(advance(&mark, seen.Add(1)))
			}
		}()
	}
	wg.Wait()
	if charged.Load() != seen.Load() {
		t.Fatalf("charged %d blocks of %d", charged.Load(), seen.Load())
	}
}
