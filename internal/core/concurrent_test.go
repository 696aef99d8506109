package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"mobiceal/internal/ioq"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// concurrentWorkload hammers a system's public and hidden volumes from
// many goroutines through the asynchronous API — writes, read-backs,
// discards and mid-run flushes — returning the payload each worker last
// wrote to its disjoint region so callers can verify survival.
func concurrentWorkload(t *testing.T, sys *System, hidden string, workers, rounds int) (pubFinal, hidFinal map[int][]byte) {
	t.Helper()
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden(hidden)
	if err != nil {
		t.Fatal(err)
	}
	const region = 64 // blocks per worker
	pubFinal = make(map[int][]byte)
	hidFinal = make(map[int][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, vol := range []*Volume{pub, hid} {
		finals := pubFinal
		if i == 1 {
			finals = hidFinal
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(vol *Volume, finals map[int][]byte, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(vol.ID())<<8 | int64(w)))
				base := uint64(w * region)
				buf := make([]byte, 4*blockSize)
				for r := 0; r < rounds; r++ {
					off := base + uint64(rng.Intn(region-4))
					switch rng.Intn(6) {
					case 0, 1, 2:
						rng.Read(buf)
						if err := vol.SubmitWrite(off, buf).Wait(); err != nil {
							t.Error(err)
							return
						}
					case 3:
						dst := make([]byte, 4*blockSize)
						if err := vol.SubmitRead(off, dst).Wait(); err != nil {
							t.Error(err)
							return
						}
					case 4:
						if err := vol.SubmitDiscard(off, 2).Wait(); err != nil {
							t.Error(err)
							return
						}
					case 5:
						if err := vol.Flush().Wait(); err != nil {
							t.Error(err)
							return
						}
					}
				}
				// Final deterministic payload over the region head, then a
				// durability barrier, so the caller can assert survival.
				final := make([]byte, 4*blockSize)
				rng.Read(final)
				if err := vol.SubmitWrite(base, final).Wait(); err != nil {
					t.Error(err)
					return
				}
				if err := vol.Flush().Wait(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				finals[w] = final
				mu.Unlock()
			}(vol, finals, w)
		}
	}
	wg.Wait()
	return pubFinal, hidFinal
}

// TestConcurrentWorkloadInvariants runs the randomized concurrent
// workload over public and hidden volumes, then asserts the system-level
// invariants survive concurrency: pool integrity and hidden-data
// durability across a clean reopen. (The multi-snapshot adversary's
// verdict on the same workload is asserted at the public API level, in
// the root package's TestConcurrentWorkloadDeniability — the adversary
// package imports core and cannot be used here.) Run under -race this is
// the end-to-end locking test for the whole stack.
func TestConcurrentWorkloadInvariants(t *testing.T) {
	const hpw = "hidden-pass"
	dev := storage.NewMemDevice(blockSize, 8192)
	cfg := testConfig(29)
	sys, err := Setup(dev, cfg, "decoy-pass", []string{hpw})
	if err != nil {
		t.Fatal(err)
	}

	pubFinal, hidFinal := concurrentWorkload(t, sys, hpw, 4, 60)
	if t.Failed() {
		return
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Pool().CheckIntegrity(); err != nil {
		t.Fatalf("integrity after concurrent workload: %v", err)
	}

	// Reopen: the flushed final payloads of every worker survive.
	re, err := Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFinals := func(vol *Volume, finals map[int][]byte, label string) {
		for w, want := range finals {
			got := make([]byte, len(want))
			if err := storage.ReadBlocks(vol.Device(), uint64(w*64), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s worker %d: flushed payload lost across reopen", label, w)
			}
		}
	}
	rePub, err := re.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(rePub, pubFinal, "public")
	reHid, err := re.OpenHidden(hpw)
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(reHid, hidFinal, "hidden")
}

// TestSubmitAfterCloseWithoutAsyncUse pins the post-Close contract for a
// system whose async API was never touched before Close: submissions must
// fail with a clean error, not crash on a missing scheduler.
// TestFlushAllFoldsIntoOneCommit pins the system-level barrier: FlushAll
// quiesces every volume's queue and folds the durability of ALL of them
// into exactly one pool commit (one call, one A/B slot flip), and the
// flushed payloads survive a reopen from the raw device without Close.
func TestFlushAllFoldsIntoOneCommit(t *testing.T) {
	sys, dev := newSystem(t, 51, []string{"hidden-pass"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	payload := map[*Volume][]byte{}
	var futs []*ioq.Future
	for _, vol := range []*Volume{pub, hid} {
		buf := make([]byte, 16*blockSize)
		rng.Read(buf)
		payload[vol] = buf
		for i := 0; i < 4; i++ {
			futs = append(futs, vol.SubmitWrite(uint64(i*4), buf[i*4*blockSize:(i+1)*4*blockSize]))
		}
	}
	if err := ioq.WaitAll(futs...); err != nil {
		t.Fatal(err)
	}
	before := sys.Pool().MetricsSnapshot()
	if err := sys.FlushAll(); err != nil {
		t.Fatal(err)
	}
	after := sys.Pool().MetricsSnapshot()
	calls, flips := after.CommitCalls-before.CommitCalls, after.CommitFlips-before.CommitFlips
	if calls != 1 || flips != 1 {
		t.Fatalf("FlushAll cost %d commits / %d flips, want 1/1", calls, flips)
	}
	if got := sys.Pool().PendingAllocations(); got != 0 {
		t.Fatalf("%d allocations still pending after FlushAll", got)
	}

	// The flushed writes are durable: a second System opened over the
	// same device (no Close, no further commit) reads them back.
	sys2, err := Open(dev, testConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := sys2.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	hid2, err := sys2.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}
	for vol, vol2 := range map[*Volume]*Volume{pub: pub2, hid: hid2} {
		got := make([]byte, len(payload[vol]))
		if err := storage.ReadBlocks(vol2.Device(), 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload[vol]) {
			t.Fatalf("%s volume payload not durable across reopen", vol2.Mode())
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// FlushAll on a system whose async API was never touched is a plain
	// commit — no queues, no panic.
	sys3, _ := newSystem(t, 52, nil)
	if err := sys3.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedOpensShareOneQueue pins the queue-per-volume-id sharing:
// opening the same volume many times must not grow the scheduler's
// tracked queue set (a long-lived system would otherwise leak dead
// queues and FlushAll would quiesce every ghost).
func TestRepeatedOpensShareOneQueue(t *testing.T) {
	sys, _ := newSystem(t, 53, nil)
	defer func() {
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	buf := make([]byte, blockSize)
	for i := 0; i < 5; i++ {
		vol, err := sys.OpenPublic("decoy-pass")
		if err != nil {
			t.Fatal(err)
		}
		if err := vol.SubmitWrite(uint64(i), buf).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sys.Scheduler().Queues()); got != 1 {
		t.Fatalf("scheduler tracks %d queues after 5 opens of one volume, want 1", got)
	}
}

func TestSubmitAfterCloseWithoutAsyncUse(t *testing.T) {
	sys, _ := newSystem(t, 83, nil)
	vol, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vol.SubmitWrite(0, make([]byte, blockSize)).Wait(); err == nil {
		t.Fatal("submit after Close succeeded, want error")
	}
	if err := vol.Flush().Wait(); err == nil {
		t.Fatal("flush after Close succeeded, want error")
	}
}

// TestConcurrentCrashRecovery runs the concurrent workload over a
// power-cut simulation device, cuts power without a final quiesce, and
// requires mount-time recovery to land on exactly a committed state: the
// pool opens and validates, and every payload whose Flush completed
// before the cut is fully present.
func TestConcurrentCrashRecovery(t *testing.T) {
	const hpw = "hidden-pass"
	crash := storage.NewCrashDevice(storage.NewMemDevice(blockSize, 8192))
	cfg := testConfig(31)
	sys, err := Setup(crash, cfg, "decoy-pass", []string{hpw})
	if err != nil {
		t.Fatal(err)
	}

	pubFinal, hidFinal := concurrentWorkload(t, sys, hpw, 3, 40)
	if t.Failed() {
		return
	}
	// Workers finished: every final payload's Flush completed, so it is
	// durable even though the system was never shut down. Cut the power.
	if err := crash.PowerCut(prng.NewSource(1234)); err != nil {
		t.Fatal(err)
	}
	crash.Restart()

	re, err := Open(crash, cfg)
	if err != nil {
		t.Fatalf("reopening after power cut: %v", err)
	}
	if err := re.Pool().CheckIntegrity(); err != nil {
		t.Fatalf("integrity after crash recovery: %v", err)
	}
	rec := re.Recovery()
	if rec.TxID == 0 {
		t.Fatal("recovered to transaction 0")
	}
	rePub, err := re.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	reHid, err := re.OpenHidden(hpw)
	if err != nil {
		t.Fatalf("hidden volume lost after crash: %v", err)
	}
	check := func(vol *Volume, finals map[int][]byte, label string) {
		for w, want := range finals {
			got := make([]byte, len(want))
			if err := storage.ReadBlocks(vol.Device(), uint64(w*64), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s worker %d: flush-completed payload lost in crash", label, w)
			}
		}
	}
	check(rePub, pubFinal, "public")
	check(reHid, hidFinal, "hidden")
}
