package thinp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// The fault-sweep harness: replay a fixed pool workload with exactly one
// device fault injected at every device-op index in turn, and assert after
// every single run that
//
//   - the pool lands in a defined health mode (transient faults are
//     absorbed; permanent metadata faults degrade to read-only; permanent
//     data faults surface to the caller without degrading the pool),
//   - the committed state is byte-exact: a reopen of the same devices
//     serves precisely the image of the last successful commit, and
//   - the pool's structural invariants hold at the stop point.
//
// The workload below is deterministic (seeded entropy, no dummy policy),
// so the baseline op counts recorded by a fault-free run enumerate every
// possible injection point.

const (
	sweepDataBlocks = 64
	sweepVirt       = 32
)

// sweepModel is the byte-exact expected content of thin 1, keyed by vblock.
// Absent vblocks must read as zeros.
type sweepModel map[uint64]byte

func (m sweepModel) clone() sweepModel {
	c := make(sweepModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// sweepRun is one execution of the recorded workload.
type sweepRun struct {
	pool      *Pool
	thin      *Thin
	committed sweepModel // state of the last successful commit
	live      sweepModel // in-memory state at the stop point (committed + uncommitted)
	// attempted is the model of the commit in flight when the error hit,
	// nil when no commit was interrupted. A fault on the commit's final
	// sync strikes after the superblock write reached the device, so a
	// reopen may legitimately serve the attempted transaction — the same
	// either-or the crash-enumeration suite asserts.
	attempted sweepModel
	err       error // first workload error (nil: ran to completion)
}

// runSweepWorkload builds a pool over the given devices and replays the
// recorded workload, stopping at the first error. arm, when non-nil, runs
// after pool construction and before the first workload step — the sweep
// uses it to inject faults into the recorded ops only, not the format
// writes of CreatePool itself (raw device writes with no retry contract).
func runSweepWorkload(t *testing.T, data, meta storage.Device, arm func()) *sweepRun {
	t.Helper()
	r := &sweepRun{committed: sweepModel{}}
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(1234)})
	if err != nil {
		t.Fatalf("sweep CreatePool: %v", err)
	}
	r.pool = p
	if err := p.CreateThin(1, sweepVirt); err != nil {
		t.Fatalf("sweep CreateThin: %v", err)
	}
	if arm != nil {
		arm()
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	r.thin = thin

	live := sweepModel{}
	r.live = live
	buf := make([]byte, blockSize)
	write := func(vb uint64, fill byte) bool {
		for i := range buf {
			buf[i] = fill
		}
		_, mapped := live[vb]
		if err := thin.WriteBlock(vb, buf); err != nil {
			r.err = err
			return false
		}
		live[vb] = fill
		if mapped {
			// An overwrite of a mapped block writes in place — thin pools
			// do no data journaling, so the bytes land in the committed
			// physical block whether or not the next metadata commit
			// survives. (Valid while the workload never overwrites a
			// block it discarded-and-remapped within the same failed
			// transaction, which it does not.)
			if _, ok := r.committed[vb]; ok {
				r.committed[vb] = fill
			}
		}
		return true
	}
	discard := func(vb uint64) bool {
		if err := thin.Discard(vb); err != nil {
			r.err = err
			return false
		}
		delete(live, vb)
		return true
	}
	commit := func() bool {
		r.attempted = live.clone()
		if err := p.Commit(); err != nil {
			r.err = err
			return false
		}
		r.committed = r.attempted
		r.attempted = nil
		return true
	}

	// The recorded workload: three transactions of writes, overwrites and
	// discards.
	for vb := uint64(0); vb < 8; vb++ {
		if !write(vb, byte(0x10+vb)) {
			return r
		}
	}
	if !commit() {
		return r
	}
	for vb := uint64(8); vb < 12; vb++ {
		if !write(vb, byte(0x20+vb)) {
			return r
		}
	}
	if !discard(0) || !discard(1) {
		return r
	}
	if !write(4, 0x77) { // overwrite inside committed state
		return r
	}
	if !commit() {
		return r
	}
	for vb := uint64(12); vb < 14; vb++ {
		if !write(vb, byte(0x30+vb)) {
			return r
		}
	}
	if !commit() {
		return r
	}
	return r
}

// sameContent compares two models content-wise: an absent vblock reads as
// a zero fill, so absence and an explicit zero fill are equivalent.
func sameContent(a, b sweepModel) bool {
	for vb := uint64(0); vb < sweepVirt; vb++ {
		if a[vb] != b[vb] {
			return false
		}
	}
	return true
}

// verifyCommittedState reopens the (now fault-free) devices and asserts
// the pool serves exactly one of the acceptable models — normally just the
// last successful commit; when a commit was interrupted after its
// superblock write reached the device, the attempted transaction is the
// other defined outcome. Torn or mixed states are never acceptable.
func verifyCommittedState(t *testing.T, label string, data, meta storage.Device, models ...sweepModel) {
	t.Helper()
	p, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(1234)})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("%s: reopened pool mode = %v, want write", label, m)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("%s: reopened pool integrity: %v", label, err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatalf("%s: reopened pool shard consistency: %v", label, err)
	}
	var actual sweepModel // nil: thin absent
	thin, err := p.Thin(1)
	switch {
	case errors.Is(err, ErrNoSuchThin):
		// The last durable transaction predates the thin: only an empty
		// model is consistent with that.
	case err != nil:
		t.Fatalf("%s: thin after reopen: %v", label, err)
	default:
		actual = sweepModel{}
		got := make([]byte, blockSize)
		for vb := uint64(0); vb < sweepVirt; vb++ {
			if err := thin.ReadBlock(vb, got); err != nil {
				t.Fatalf("%s: read vblock %d: %v", label, vb, err)
			}
			fill := got[0]
			if !bytes.Equal(got, bytes.Repeat([]byte{fill}, blockSize)) {
				t.Fatalf("%s: vblock %d content torn: %x...", label, vb, got[:8])
			}
			if fill != 0 {
				actual[vb] = fill
			}
		}
	}
	match := false
	for _, m := range models {
		if m == nil {
			continue
		}
		if actual == nil {
			if len(m) == 0 {
				match = true
				break
			}
			continue
		}
		if sameContent(actual, m) {
			match = true
			break
		}
	}
	if !match {
		t.Fatalf("%s: reopened state %v matches none of the %d acceptable models",
			label, actual, len(models))
	}
	// The reopened pool is fully live: it accepts new transactions.
	if err := p.Commit(); err != nil {
		t.Fatalf("%s: commit after reopen: %v", label, err)
	}
}

// TestFaultSweepMetaDevice injects one fault at every metadata-device write
// and sync op index of the recorded workload, in both fault classes.
func TestFaultSweepMetaDevice(t *testing.T) {
	// Baseline: record the op-count window of the post-creation workload.
	baseData := storage.NewMemDevice(blockSize, sweepDataBlocks)
	baseMeta := storage.NewFlakyDevice(
		storage.NewMemDevice(blockSize, MetaBlocksNeeded(sweepDataBlocks, blockSize)),
		storage.FlakyOptions{Seed: 1})
	var baseWrites, baseSyncs uint64
	if r := runSweepWorkload(t, baseData, baseMeta, func() {
		baseWrites = baseMeta.OpCount(storage.OpWrite)
		baseSyncs = baseMeta.OpCount(storage.OpSync)
	}); r.err != nil {
		t.Fatalf("baseline run failed: %v", r.err)
	}
	nWrites := baseMeta.OpCount(storage.OpWrite)
	nSyncs := baseMeta.OpCount(storage.OpSync)
	if nWrites <= baseWrites || nSyncs <= baseSyncs {
		t.Fatalf("degenerate baseline: writes [%d,%d), syncs [%d,%d)",
			baseWrites, nWrites, baseSyncs, nSyncs)
	}

	sweep := func(op storage.Op, lo, hi uint64, class error) {
		for i := lo; i < hi; i++ {
			label := fmt.Sprintf("meta %v op %d class %v", op, i, class)
			dataMem := storage.NewMemDevice(blockSize, sweepDataBlocks)
			metaMem := storage.NewMemDevice(blockSize, MetaBlocksNeeded(sweepDataBlocks, blockSize))
			flaky := storage.NewFlakyDevice(metaMem, storage.FlakyOptions{Seed: 1})
			r := runSweepWorkload(t, dataMem, flaky, func() {
				flaky.FailOpAt(op, i, class)
			})

			if errors.Is(class, storage.ErrTransient) {
				// Transient metadata faults are absorbed by the commit's
				// slot-write retry: the workload must complete untouched.
				if r.err != nil {
					t.Fatalf("%s: transient fault surfaced: %v", label, r.err)
				}
				if m := r.pool.Mode(); m != PoolWrite {
					t.Fatalf("%s: mode = %v, want write", label, m)
				}
			} else {
				// Permanent metadata faults fail exactly one commit and
				// degrade the pool to read-only; nothing else is defined to
				// happen.
				if r.err == nil {
					t.Fatalf("%s: permanent fault vanished", label)
				}
				if !errors.Is(r.err, storage.ErrInjected) {
					t.Fatalf("%s: workload error = %v, want injected", label, r.err)
				}
				if m, reason := r.pool.Status(); m != PoolReadOnly || reason == "" {
					t.Fatalf("%s: mode = %v (%q), want read-only", label, m, reason)
				}
				// Mutations hard-fail, reads keep serving.
				if err := r.thin.WriteBlock(20, make([]byte, blockSize)); !errors.Is(err, ErrReadOnlyMode) {
					t.Fatalf("%s: write in read-only = %v", label, err)
				}
				if err := r.thin.ReadBlock(2, make([]byte, blockSize)); err != nil {
					t.Fatalf("%s: read in read-only: %v", label, err)
				}
			}
			verifyCommittedState(t, label, dataMem, metaMem, r.committed, r.attempted)
		}
	}
	for _, class := range []error{storage.ErrTransient, storage.ErrMedium} {
		sweep(storage.OpWrite, baseWrites, nWrites, class)
		sweep(storage.OpSync, baseSyncs, nSyncs, class)
	}
}

// TestFaultSweepDataDevice injects one fault at every data-device write op
// index. Data-path faults surface to the caller and never degrade the pool:
// the write unwinds its fresh provisions, invariants hold, and committed
// state stays byte-exact.
func TestFaultSweepDataDevice(t *testing.T) {
	baseData := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, sweepDataBlocks),
		storage.FlakyOptions{Seed: 2})
	baseMeta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(sweepDataBlocks, blockSize))
	var baseWrites uint64
	if r := runSweepWorkload(t, baseData, baseMeta, func() {
		baseWrites = baseData.OpCount(storage.OpWrite)
	}); r.err != nil {
		t.Fatalf("baseline run failed: %v", r.err)
	}
	nWrites := baseData.OpCount(storage.OpWrite)
	if nWrites <= baseWrites {
		t.Fatal("degenerate baseline")
	}

	for _, class := range []error{storage.ErrTransient, storage.ErrMedium} {
		for i := baseWrites; i < nWrites; i++ {
			label := fmt.Sprintf("data write op %d class %v", i, class)
			dataMem := storage.NewMemDevice(blockSize, sweepDataBlocks)
			metaMem := storage.NewMemDevice(blockSize, MetaBlocksNeeded(sweepDataBlocks, blockSize))
			flaky := storage.NewFlakyDevice(dataMem, storage.FlakyOptions{Seed: 2})
			r := runSweepWorkload(t, dataMem2dev(flaky), metaMem, func() {
				flaky.FailOpAt(storage.OpWrite, i, class)
			})

			// The thin data path performs no retry itself (that is the I/O
			// scheduler's job), so either class surfaces to the caller.
			if r.err == nil {
				t.Fatalf("%s: fault vanished", label)
			}
			if !errors.Is(r.err, storage.ErrInjected) {
				t.Fatalf("%s: workload error = %v", label, r.err)
			}
			// Data faults never move the health ladder.
			if m := r.pool.Mode(); m != PoolWrite {
				t.Fatalf("%s: mode = %v, want write", label, m)
			}
			if err := r.pool.CheckIntegrity(); err != nil {
				t.Fatalf("%s: integrity after fault: %v", label, err)
			}
			if err := r.pool.CheckConsistency(); err != nil {
				t.Fatalf("%s: shard consistency after fault: %v", label, err)
			}
			// The pool is still fully writable after the fault: the failed
			// request unwound cleanly.
			if err := r.thin.WriteBlock(20, make([]byte, blockSize)); err != nil {
				t.Fatalf("%s: write after fault: %v", label, err)
			}
			// The post-fault commit makes the whole in-memory state durable
			// — everything that landed before the fault plus the probe
			// write — so the reopen check runs against the live model.
			if err := r.pool.Commit(); err != nil {
				t.Fatalf("%s: commit after fault: %v", label, err)
			}
			verifyCommittedState(t, label, dataMem, metaMem,
				withBlock(r.live, 20, 0))
		}
	}
}

// dataMem2dev exists to keep the FlakyDevice usable as storage.Device at
// the runSweepWorkload call site.
func dataMem2dev(d *storage.FlakyDevice) storage.Device { return d }

// withBlock returns a copy of m with vblock vb set to fill.
func withBlock(m sweepModel, vb uint64, fill byte) sweepModel {
	c := m.clone()
	c[vb] = fill
	return c
}
