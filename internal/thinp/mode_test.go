package thinp

import (
	"errors"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// tinyPool builds a pool with dataBlocks data blocks and one thin (id 1)
// spanning virt virtual blocks.
func tinyPool(t *testing.T, dataBlocks, virt uint64, opts Options) (*Pool, *Thin) {
	t.Helper()
	if opts.Entropy == nil {
		opts.Entropy = prng.NewSeededEntropy(99)
	}
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, virt); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	return p, thin
}

// TestModeOutOfDataSpaceAndSameTxRecovery: exhausting the data device moves
// the ladder to out-of-data-space; overwrites and reads still work there; a
// discard within the transaction returns the pool to write mode.
func TestModeOutOfDataSpaceAndSameTxRecovery(t *testing.T) {
	p, thin := tinyPool(t, 8, 16, Options{})
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 8; i++ {
		if err := thin.WriteBlock(i, buf); err != nil {
			t.Fatalf("fill write %d: %v", i, err)
		}
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode while full but unprovoked = %v", m)
	}
	// Default NoSpaceTimeout (0) fails fast with ErrNoSpace and latches OODS.
	if err := thin.WriteBlock(8, buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit write err = %v, want ErrNoSpace", err)
	}
	if m, reason := p.Status(); m != PoolOutOfDataSpace || reason == "" {
		t.Fatalf("mode = %v (%q), want out-of-data-space", m, reason)
	}
	// Overwrites of provisioned blocks and reads proceed in OODS.
	if err := thin.WriteBlock(3, buf); err != nil {
		t.Fatalf("overwrite in OODS: %v", err)
	}
	if err := thin.ReadBlock(3, buf); err != nil {
		t.Fatalf("read in OODS: %v", err)
	}
	// Commits too — that is how reclaim becomes durable.
	if err := p.Commit(); err != nil {
		t.Fatalf("commit in OODS: %v", err)
	}
	// Blocks freed within the current transaction recover the pool... but
	// the commit above made the allocations durable, so this discard
	// quarantines and recovery waits for the next commit.
	if err := thin.Discard(0); err != nil {
		t.Fatalf("discard: %v", err)
	}
	if m := p.Mode(); m != PoolOutOfDataSpace {
		t.Fatalf("mode after quarantined free = %v, want still OODS", m)
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("commit releasing quarantine: %v", err)
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode after quarantine release = %v, want write", m)
	}
	if err := thin.WriteBlock(8, buf); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestModeSameTransactionDiscardRecovers: a free of a block allocated in
// the same transaction returns to the allocator immediately and recovers
// the pool without a commit.
func TestModeSameTransactionDiscardRecovers(t *testing.T) {
	p, thin := tinyPool(t, 4, 8, Options{})
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 4; i++ {
		if err := thin.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := thin.WriteBlock(4, buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overcommit err = %v", err)
	}
	if err := thin.Discard(1); err != nil {
		t.Fatal(err)
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode after same-tx free = %v, want write (no commit needed)", m)
	}
	if err := thin.WriteBlock(4, buf); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestNoSpaceTimeoutQueuesWriter: with NoSpaceTimeout set, a writer that
// hits the full pool parks and completes once a concurrent discard
// reclaims space — dm-thin's queue_if_no_space with no_space_timeout.
func TestNoSpaceTimeoutQueuesWriter(t *testing.T) {
	p, thin := tinyPool(t, 4, 8, Options{NoSpaceTimeout: 5 * time.Second})
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 4; i++ {
		if err := thin.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- thin.WriteBlock(5, buf) }()
	// Give the writer time to park, then reclaim.
	time.Sleep(20 * time.Millisecond)
	if err := thin.Discard(0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued write err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued write never woke after reclaim")
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode after reclaim = %v", m)
	}
}

// TestNoSpaceTimeoutExpiry: when no reclaim arrives within NoSpaceTimeout
// the queued write fails with ErrNoSpace and the pool latches fail-fast —
// later writers error immediately instead of queueing again.
func TestNoSpaceTimeoutExpiry(t *testing.T) {
	p, thin := tinyPool(t, 4, 8, Options{NoSpaceTimeout: 30 * time.Millisecond})
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 4; i++ {
		if err := thin.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	if err := thin.WriteBlock(5, buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("queued write err = %v, want ErrNoSpace", err)
	}
	if time.Since(t0) < 30*time.Millisecond {
		t.Fatal("write failed before the no-space timeout elapsed")
	}
	// Fail-fast is latched: the next writer does not wait the timeout out.
	t0 = time.Now()
	if err := thin.WriteBlock(6, buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("post-expiry write err = %v", err)
	}
	if time.Since(t0) > 20*time.Millisecond {
		t.Fatal("post-expiry write queued again instead of failing fast")
	}
	// Reclaim clears the latch and write mode resumes.
	if err := thin.Discard(2); err != nil {
		t.Fatal(err)
	}
	if err := thin.WriteBlock(5, buf); err != nil {
		t.Fatalf("write after reclaim: %v", err)
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode = %v", m)
	}
}

// TestModeTransientMetaFaultAbsorbedByCommitRetry: a one-shot transient
// fault on the metadata slot write is retried inside commitOnce; the commit
// succeeds and the ladder never moves.
func TestModeTransientMetaFaultAbsorbedByCommitRetry(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 64)
	metaMem := storage.NewMemDevice(blockSize, MetaBlocksNeeded(64, blockSize))
	flaky := storage.NewFlakyDevice(metaMem, storage.FlakyOptions{Seed: 5})
	p, err := CreatePool(data, flaky, Options{Entropy: prng.NewSeededEntropy(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := thin.WriteBlock(0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	// Fault the very next metadata write op, transient class.
	flaky.FailOpAt(storage.OpWrite, flaky.OpCount(storage.OpWrite), storage.ErrTransient)
	if err := p.Commit(); err != nil {
		t.Fatalf("commit with transient meta fault: %v", err)
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode = %v, want write (transient fault absorbed)", m)
	}
	// A transient sync hiccup is absorbed the same way.
	flaky.FailOpAt(storage.OpSync, flaky.OpCount(storage.OpSync), storage.ErrTransient)
	if err := thin.WriteBlock(1, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("commit with transient sync fault: %v", err)
	}
	if m := p.Mode(); m != PoolWrite {
		t.Fatalf("mode after sync hiccup = %v", m)
	}
}

// TestModeFailStopsEverything: PoolFail gates reads, writes, discards and
// commits. (Fail is reached through post-flip bookkeeping corruption, which
// no device fault can trigger from outside; force the ladder directly.)
func TestModeFailStopsEverything(t *testing.T) {
	p, thin := tinyPool(t, 8, 16, Options{})
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.setModeLocked(PoolFail, "forced by test")
	p.mu.Unlock()
	if err := thin.ReadBlock(0, buf); !errors.Is(err, ErrPoolFail) {
		t.Fatalf("read err = %v, want ErrPoolFail", err)
	}
	if err := thin.WriteBlock(1, buf); !errors.Is(err, ErrPoolFail) {
		t.Fatalf("write err = %v", err)
	}
	if err := thin.Discard(0); !errors.Is(err, ErrPoolFail) {
		t.Fatalf("discard err = %v", err)
	}
	if err := p.Commit(); !errors.Is(err, ErrPoolFail) {
		t.Fatalf("commit err = %v", err)
	}
	// The ladder never de-escalates from Fail.
	p.mu.Lock()
	p.setModeLocked(PoolReadOnly, "attempted demotion")
	p.maybeRecoverSpaceLocked()
	p.mu.Unlock()
	if m := p.Mode(); m != PoolFail {
		t.Fatalf("mode demoted from fail to %v", m)
	}
}

// TestModeStrings pins the operator-facing names.
func TestModeStrings(t *testing.T) {
	want := map[PoolMode]string{
		PoolWrite:          "write",
		PoolOutOfDataSpace: "out-of-data-space",
		PoolReadOnly:       "read-only",
		PoolFail:           "fail",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}
