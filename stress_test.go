package mobiceal_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mobiceal"
)

// TestFaultStressDeniability soaks the full stack in randomized transient
// faults: a FlakyDevice injects seeded controller hiccups under concurrent
// public and hidden traffic on the asynchronous volume API. Every request
// must still succeed (the scheduler's retry rides the faults out), every
// byte written must read back intact, the pool must stay healthy — and the
// multi-snapshot adversary must come away empty-handed: no plaintext-looking
// change in the fault epoch, and a post-fault epoch that is spotless.
//
// The CI race matrix runs this at GOMAXPROCS 1 and 4, so both the fully
// serialized and the genuinely parallel interleavings are exercised.
func TestFaultStressDeniability(t *testing.T) {
	const (
		blockSize = 4096
		workers   = 2  // per volume
		rounds    = 40 // per worker
		region    = 48 // virtual blocks per worker
	)
	inner := mobiceal.NewMemDevice(blockSize, 8192)
	flaky := mobiceal.NewFlakyDevice(inner, mobiceal.FlakyOptions{Seed: 4242})
	cfg := testConfig(99)
	cfg.AsyncWorkers = 4
	sys, err := mobiceal.Setup(flaky, cfg, "decoy-pass", []string{"hidden-pass"})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	before := inner.Snapshot()

	// Arm the fault stream only now: setup and unlock use the synchronous
	// path; the resilience contract under test is the async API's.
	flaky.SetTransientRate(0.08)

	// fill is the deterministic plaintext of a worker's virtual block, so
	// read-back verification needs no shared bookkeeping.
	fill := func(volID, w int, vb uint64) []byte {
		buf := make([]byte, blockSize)
		for i := range buf {
			buf[i] = byte(uint64(volID)<<6 ^ uint64(w)<<4 ^ vb ^ uint64(i)&0xff)
		}
		return buf
	}

	var wg sync.WaitGroup
	for vi, vol := range []*mobiceal.Volume{pub, hid} {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(vi int, vol *mobiceal.Volume, w int) {
				defer wg.Done()
				// Disjoint per-worker regions, offset past the volumes'
				// reserved block 0.
				base := uint64(1 + (vi*workers+w)*region)
				var futures []*mobiceal.Future
				for r := 0; r < rounds; r++ {
					vb := base + uint64(r*7%region)
					switch r % 4 {
					case 0, 1:
						if err := vol.SubmitWrite(vb, fill(vol.ID(), w, vb)).Wait(); err != nil {
							t.Errorf("vol %d write block %d: %v", vol.ID(), vb, err)
							return
						}
					case 2:
						dst := make([]byte, blockSize)
						futures = append(futures, vol.SubmitRead(vb, dst))
					case 3:
						futures = append(futures, vol.Flush())
					}
				}
				if err := mobiceal.WaitAll(futures...); err != nil {
					t.Errorf("vol %d worker %d: %v", vol.ID(), w, err)
				}
			}(vi, vol, w)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := sys.FlushAll(); err != nil {
		t.Fatalf("FlushAll under faults: %v", err)
	}

	// Read back every block each worker last wrote — end-to-end integrity
	// through the fault storm. (Round r touches base + r*7%region, so the
	// final contents per slot are deterministic.)
	for vi, vol := range []*mobiceal.Volume{pub, hid} {
		for w := 0; w < workers; w++ {
			base := uint64(1 + (vi*workers+w)*region)
			written := map[uint64]bool{}
			for r := 0; r < rounds; r++ {
				if r%4 <= 1 {
					written[base+uint64(r*7%region)] = true
				}
			}
			for vb := range written {
				dst := make([]byte, blockSize)
				if err := vol.SubmitRead(vb, dst).Wait(); err != nil {
					t.Fatalf("read-back vol %d block %d: %v", vol.ID(), vb, err)
				}
				if !bytes.Equal(dst, fill(vol.ID(), w, vb)) {
					t.Fatalf("vol %d block %d corrupted under faults", vol.ID(), vb)
				}
			}
		}
	}

	health := sys.Health()
	if !health.Healthy() {
		t.Fatalf("pool degraded under transient faults: %v (%s)", health.Mode, health.Reason)
	}
	stats := flaky.Stats()
	if stats.Transient == 0 {
		t.Fatal("fault device injected nothing — the soak tested nothing")
	}
	if health.IO.Recovered == 0 {
		t.Fatalf("no request recovered by retry despite %d injected faults", stats.Transient)
	}
	if health.IO.Failures != 0 {
		t.Fatalf("scheduler recorded %d hard failures", health.IO.Failures)
	}
	t.Logf("injected %d transient faults; scheduler retried %d, recovered %d requests",
		stats.Transient, health.IO.Retries, health.IO.Recovered)

	// Fault-epoch verdict: whatever the fault storm did, no change may look
	// like plaintext. (Write-then-free around a faulted attempt can leave
	// changed-but-unallocated blocks — unaccountable for any scheme within
	// one epoch — so the unaccountable-free assertion belongs to the clean
	// epoch below.)
	after := inner.Snapshot()
	report, err := mobiceal.AnalyzeSnapshots(inner, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if report.NonRandomChanged != 0 {
		t.Fatalf("fault epoch leaked %d plaintext-looking changes", report.NonRandomChanged)
	}

	// Post-fault epoch: disarm the faults, run ordinary traffic, and demand
	// the full verdict — every change accountable and random-looking.
	flaky.SetTransientRate(0)
	for vi, vol := range []*mobiceal.Volume{pub, hid} {
		base := uint64(1 + (vi*workers+workers)*region)
		for vb := base; vb < base+8; vb++ {
			if err := vol.SubmitWrite(vb, fill(vol.ID(), 7, vb)).Wait(); err != nil {
				t.Fatalf("clean-epoch write: %v", err)
			}
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	report, err = mobiceal.AnalyzeSnapshots(inner, after, inner.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unaccountable) != 0 || report.NonRandomChanged != 0 {
		t.Fatalf("post-fault epoch not deniable: %s", describeReport(report))
	}
}

func describeReport(r *mobiceal.DiffReport) string {
	return fmt.Sprintf("changed=%d meta=%d unaccountable=%d nonpublic=%d public=%d nonrandom=%d",
		r.Changed, r.MetaChanged, len(r.Unaccountable), r.NonPublicChanged,
		r.PublicChanged, r.NonRandomChanged)
}
