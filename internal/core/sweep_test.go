// Package core_test (external): the adversary package imports core for its
// game harness, so the sweep — which needs both — cannot live inside the
// core test package without a cycle.
package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mobiceal/internal/adversary"
	"mobiceal/internal/core"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
)

const blockSize = 4096

func testConfig(seed uint64) core.Config {
	return core.Config{
		NumVolumes: 6,
		Lambda:     1,
		X:          50,
		KDFIter:    16,
		Entropy:    prng.NewSeededEntropy(seed),
		Seed:       seed,
		SeedSet:    true,
	}
}

// The core-level fault sweep: a full MobiCeal system (crypto footer, thin
// pool, async scheduler) over a FlakyDevice, a recorded post-setup workload,
// and one injected fault per device-op index of that workload. A transient
// fault at ANY index must be invisible to the caller (ioq retry, commit
// retry, sync retry); a permanent fault must surface, leave the pool in a
// defined mode, keep every committed byte readable, and a reopen must fully
// recover — with the multi-snapshot adversary finding no plaintext-looking
// change in the fault epoch and a spotless post-recovery epoch.

const (
	sweepSeed         = 42
	sweepHiddenBase   = 10 // first hidden-payload virtual block
	sweepHiddenBlocks = 4
	sweepBatches      = 3
	sweepBatchBlocks  = 4
)

func sweepHiddenBlockData(b int) []byte {
	buf := make([]byte, blockSize)
	for i := range buf {
		buf[i] = byte(0xA0 + b)
	}
	return buf
}

// newFaultSystem builds a System over a FlakyDevice-wrapped MemDevice and
// makes a hidden payload durable before any fault is armed. Every call is
// bit-identical: seeded entropy, seeded simulation source, no concurrency
// before the workload.
func newFaultSystem(t *testing.T) (*core.System, *storage.FlakyDevice, *storage.MemDevice) {
	t.Helper()
	inner := storage.NewMemDevice(blockSize, 4096)
	flaky := storage.NewFlakyDevice(inner, storage.FlakyOptions{Seed: 7})
	cfg := testConfig(sweepSeed)
	cfg.AsyncWorkers = 2
	sys, err := core.Setup(flaky, cfg, "decoy-pass", []string{"hidden-pass"})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatalf("OpenHidden: %v", err)
	}
	for b := 0; b < sweepHiddenBlocks; b++ {
		if err := hid.Device().WriteBlock(uint64(sweepHiddenBase+b), sweepHiddenBlockData(b)); err != nil {
			t.Fatalf("hidden payload block %d: %v", b, err)
		}
	}
	if err := sys.Commit(); err != nil {
		t.Fatalf("committing hidden payload: %v", err)
	}
	return sys, flaky, inner
}

// runCoreWorkload drives the recorded workload through the asynchronous
// volume API: three public batch writes, then the system-wide durability
// barrier. Futures are waited one by one so the device-op stream stays
// deterministic across runs.
func runCoreWorkload(sys *core.System) error {
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		return err
	}
	buf := make([]byte, sweepBatchBlocks*blockSize)
	for batch := 0; batch < sweepBatches; batch++ {
		for i := range buf {
			buf[i] = byte(0x40 + batch)
		}
		if err := pub.SubmitWrite(uint64(batch*sweepBatchBlocks), buf).Wait(); err != nil {
			return err
		}
	}
	return sys.FlushAll()
}

// verifyHiddenPayload asserts the durable hidden payload survived: reopen
// the device, unlock the hidden volume, compare every byte.
func verifyHiddenPayload(t *testing.T, label string, dev storage.Device) *core.System {
	t.Helper()
	sys, err := core.Open(dev, testConfig(sweepSeed))
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	if mode := sys.Health().Mode; mode != thinp.PoolWrite {
		t.Fatalf("%s: reopened pool mode = %v, want write", label, mode)
	}
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatalf("%s: reopen OpenHidden: %v", label, err)
	}
	got := make([]byte, blockSize)
	for b := 0; b < sweepHiddenBlocks; b++ {
		if err := hid.Device().ReadBlock(uint64(sweepHiddenBase+b), got); err != nil {
			t.Fatalf("%s: reading hidden block %d: %v", label, b, err)
		}
		if !bytes.Equal(got, sweepHiddenBlockData(b)) {
			t.Fatalf("%s: hidden block %d corrupted after recovery", label, b)
		}
	}
	return sys
}

// analyzeEpoch runs the multi-snapshot adversary over one epoch of the
// inner device.
func analyzeEpoch(t *testing.T, label string, dev storage.Device, s0, s1 *storage.Snapshot) *adversary.DiffReport {
	t.Helper()
	info, err := core.Layout(dev)
	if err != nil {
		t.Fatalf("%s: layout: %v", label, err)
	}
	report, err := adversary.AnalyzeDiff(s0, s1, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
	if err != nil {
		t.Fatalf("%s: adversary analysis: %v", label, err)
	}
	return report
}

// TestCoreFaultSweep is the end-to-end fault sweep over the whole stack.
func TestCoreFaultSweep(t *testing.T) {
	// Baseline run: record the workload's device-op window with no faults.
	sys, flaky, inner := newFaultSystem(t)
	baseWrites := flaky.OpCount(storage.OpWrite)
	baseSyncs := flaky.OpCount(storage.OpSync)
	s0 := inner.Snapshot()
	if err := runCoreWorkload(sys); err != nil {
		t.Fatalf("baseline workload: %v", err)
	}
	nWrites := flaky.OpCount(storage.OpWrite)
	nSyncs := flaky.OpCount(storage.OpSync)
	if err := sys.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	report := analyzeEpoch(t, "baseline", inner, s0, inner.Snapshot())
	if len(report.Unaccountable) != 0 || report.NonRandomChanged != 0 {
		t.Fatalf("baseline epoch not deniable: %+v", report)
	}
	if nWrites <= baseWrites || nSyncs <= baseSyncs {
		t.Fatalf("workload recorded no ops: writes [%d,%d) syncs [%d,%d)",
			baseWrites, nWrites, baseSyncs, nSyncs)
	}
	t.Logf("sweep window: %d write ops, %d sync ops",
		nWrites-baseWrites, nSyncs-baseSyncs)

	// The sweep window can widen under -race GOMAXPROCS=1; stride-sample
	// with -short to keep the CI soak budget.
	stride := uint64(1)
	if testing.Short() {
		stride = 3
	}

	type point struct {
		op  storage.Op
		lo  uint64
		hi  uint64
		cls error
	}
	sweeps := []point{
		{storage.OpWrite, baseWrites, nWrites, storage.ErrTransient},
		{storage.OpWrite, baseWrites, nWrites, storage.ErrMedium},
		{storage.OpSync, baseSyncs, nSyncs, storage.ErrTransient},
		{storage.OpSync, baseSyncs, nSyncs, storage.ErrMedium},
	}
	for _, sw := range sweeps {
		for idx := sw.lo; idx < sw.hi; idx += stride {
			label := fmt.Sprintf("%v/%v@%d", sw.op, sw.cls, idx)
			sys, flaky, inner := newFaultSystem(t)
			s0 := inner.Snapshot()
			flaky.FailOpAt(sw.op, idx, sw.cls)
			err := runCoreWorkload(sys)

			if sw.cls == storage.ErrTransient {
				// A single transient fault at any index must be fully
				// absorbed by the stack's retry layers.
				if err != nil {
					t.Fatalf("%s: transient fault leaked: %v", label, err)
				}
				if h := sys.Health(); h.Mode != thinp.PoolWrite {
					t.Fatalf("%s: mode = %v after absorbed transient", label, h.Mode)
				}
				if err := sys.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
				report := analyzeEpoch(t, label, inner, s0, inner.Snapshot())
				if report.NonRandomChanged != 0 {
					t.Fatalf("%s: %d plaintext-looking changes", label, report.NonRandomChanged)
				}
				continue
			}

			// Permanent fault: the error surfaces, classified and traceable
			// to the injection; the pool lands in a defined mode.
			if err == nil {
				t.Fatalf("%s: permanent fault was swallowed", label)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s: error lost its injection marker: %v", label, err)
			}
			h := sys.Health()
			if h.Mode != thinp.PoolWrite && h.Mode != thinp.PoolReadOnly {
				t.Fatalf("%s: undefined pool mode %v (%s)", label, h.Mode, h.Reason)
			}
			if h.Mode == thinp.PoolReadOnly && h.Reason == "" {
				t.Fatalf("%s: read-only without a reason", label)
			}
			// Reads of committed data keep working in ReadOnly.
			hid, err := sys.OpenHidden("hidden-pass")
			if err != nil {
				t.Fatalf("%s: OpenHidden after fault: %v", label, err)
			}
			probe := make([]byte, blockSize)
			if err := hid.Device().ReadBlock(sweepHiddenBase, probe); err != nil {
				t.Fatalf("%s: read after fault: %v", label, err)
			}
			// Drain the scheduler; the commit in Close may legitimately
			// fail on a read-only pool, so shut the workers down directly.
			if err := sys.Scheduler().Close(); err != nil {
				t.Fatalf("%s: scheduler close: %v", label, err)
			}

			// Even the fault epoch must not leak plaintext-looking writes.
			// (Blocks provisioned, written and unwound around the fault may
			// read as unaccountable — inherent to ANY scheme when an epoch
			// spans a write-then-free, as the crash tests document — but
			// their content is still indistinguishable from noise.)
			report := analyzeEpoch(t, label, inner, s0, inner.Snapshot())
			if report.NonRandomChanged != 0 {
				t.Fatalf("%s: %d plaintext-looking changes in fault epoch",
					label, report.NonRandomChanged)
			}

			// Recovery: a reopen loads the last durable transaction with the
			// hidden payload intact, and the recovered system sustains a
			// spotless post-recovery epoch — writes, a commit, and a fully
			// clean adversary verdict.
			resys := verifyHiddenPayload(t, label, flaky)
			s2 := inner.Snapshot()
			if err := runCoreWorkload(resys); err != nil {
				t.Fatalf("%s: post-recovery workload: %v", label, err)
			}
			if err := resys.Close(); err != nil {
				t.Fatalf("%s: post-recovery close: %v", label, err)
			}
			report = analyzeEpoch(t, label+"/recovered", inner, s2, inner.Snapshot())
			if len(report.Unaccountable) != 0 || report.NonRandomChanged != 0 {
				t.Fatalf("%s: post-recovery epoch not deniable: %+v", label, report)
			}
		}
	}
}
