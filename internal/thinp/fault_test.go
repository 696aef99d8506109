package thinp

import (
	"errors"
	"sync"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// Failure injection: the pool must propagate device errors cleanly and keep
// its in-memory invariants intact, so the caller can retry after the medium
// recovers.
func TestPoolSurvivesDataDeviceWriteFaults(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 128)
	faulty := storage.NewFlakyDevice(mem, storage.FlakyOptions{})
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(128, blockSize))
	p, err := CreatePool(faulty, meta, Options{Entropy: prng.NewSeededEntropy(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter(storage.OpWrite, 0, nil)
	err = thin.WriteBlock(1, buf)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Recover and continue: the pool still works.
	faulty.Disarm()
	if err := thin.WriteBlock(2, buf); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}

func TestPoolCommitPropagatesMetaFaults(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 128)
	metaMem := storage.NewMemDevice(blockSize, MetaBlocksNeeded(128, blockSize))
	faulty := storage.NewFlakyDevice(metaMem, storage.FlakyOptions{})
	p, err := CreatePool(data, faulty, Options{Entropy: prng.NewSeededEntropy(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter(storage.OpWrite, 0, nil)
	if err := p.Commit(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("commit err = %v, want ErrInjected", err)
	}
	// A failed metadata commit degrades the pool to read-only: nothing new
	// can become durable, so further commits and mutations are refused even
	// after the device recovers — only a reopen resets the ladder.
	if m, reason := p.Status(); m != PoolReadOnly || reason == "" {
		t.Fatalf("mode after failed commit = %v (%q), want read-only", m, reason)
	}
	faulty.Disarm()
	if err := p.Commit(); !errors.Is(err, ErrReadOnlyMode) {
		t.Fatalf("commit in read-only mode err = %v, want ErrReadOnlyMode", err)
	}
	if err := p.CreateThin(2, 8); !errors.Is(err, ErrReadOnlyMode) {
		t.Fatalf("create-thin in read-only mode err = %v", err)
	}
	// Reads keep working in read-only mode.
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.ReadBlock(0, buf); err != nil {
		t.Fatalf("read in read-only mode: %v", err)
	}
	// A reopen on the recovered device reloads the last durable state and
	// restores write mode.
	p2, err := OpenPool(data, faulty, Options{Entropy: prng.NewSeededEntropy(2)})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if m := p2.Mode(); m != PoolWrite {
		t.Fatalf("mode after reopen = %v, want write", m)
	}
	if err := p2.Commit(); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
}

func TestThinReadFaultPropagates(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 128)
	faulty := storage.NewFlakyDevice(mem, storage.FlakyOptions{})
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(128, blockSize))
	p, err := CreatePool(faulty, meta, Options{Entropy: prng.NewSeededEntropy(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter(storage.OpRead, 0, nil)
	if err := thin.ReadBlock(5, buf); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	// Unprovisioned reads never touch the device: they still succeed.
	if err := thin.ReadBlock(50, buf); err != nil {
		t.Fatalf("unprovisioned read during device failure: %v", err)
	}
}

// Concurrency: parallel writers to different thin volumes must never
// double-allocate or corrupt each other. Run with -race for full value.
func TestPoolConcurrentWriters(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 4096)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(4096, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(7)),
		Entropy:   prng.NewSeededEntropy(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const blocksPerWriter = 100
	for id := 1; id <= writers; id++ {
		if err := p.CreateThin(id, 1024); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for id := 1; id <= writers; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			thin, err := p.Thin(id)
			if err != nil {
				errCh <- err
				return
			}
			buf := make([]byte, blockSize)
			for i := range buf {
				buf[i] = byte(id)
			}
			for vb := uint64(0); vb < blocksPerWriter; vb++ {
				if err := thin.WriteBlock(vb, buf); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := p.AllocatedBlocks(); got != writers*blocksPerWriter {
		t.Fatalf("allocated = %d, want %d", got, writers*blocksPerWriter)
	}
	// Every volume reads back its own fill byte.
	buf := make([]byte, blockSize)
	for id := 1; id <= writers; id++ {
		thin, err := p.Thin(id)
		if err != nil {
			t.Fatal(err)
		}
		for vb := uint64(0); vb < blocksPerWriter; vb++ {
			if err := thin.ReadBlock(vb, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(id) || buf[blockSize-1] != byte(id) {
				t.Fatalf("volume %d block %d holds %d's data", id, vb, buf[0])
			}
		}
	}
	// All physical blocks distinct across volumes.
	seen := map[uint64]bool{}
	for id := 1; id <= writers; id++ {
		pbs, err := p.PhysicalBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, pb := range pbs {
			if seen[pb] {
				t.Fatalf("physical block %d owned twice", pb)
			}
			seen[pb] = true
		}
	}
}

// Property-flavored: interleaved discards and writes keep bitmap accounting
// exact.
func TestPoolDiscardWriteInterleavingAccounting(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 512)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(512, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(8)),
		Entropy:   prng.NewSeededEntropy(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 256); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.NewSource(9)
	live := map[uint64]bool{}
	buf := make([]byte, blockSize)
	for i := 0; i < 2000; i++ {
		vb := src.Uint64n(256)
		if src.Float64() < 0.6 {
			if err := thin.WriteBlock(vb, buf); err != nil {
				t.Fatal(err)
			}
			live[vb] = true
		} else {
			if err := thin.Discard(vb); err != nil {
				t.Fatal(err)
			}
			delete(live, vb)
		}
		if i%500 == 0 {
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := p.AllocatedBlocks(); got != uint64(len(live)) {
		t.Fatalf("allocated = %d, live = %d", got, len(live))
	}
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != uint64(len(live)) {
		t.Fatalf("mapped = %d, live = %d", mapped, len(live))
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after interleaving: %v", err)
	}
}

func TestCheckIntegrityDetectsDoubleOwnership(t *testing.T) {
	p, _, _ := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 32); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("clean pool flagged: %v", err)
	}
	// Corrupt: alias thin 1's physical block into thin 2's mapping.
	p.mu.Lock()
	pb, _ := p.thins[1].pt.get(0)
	p.thins[2].pt.set(9, pb)
	p.mu.Unlock()
	if err := p.CheckIntegrity(); err == nil {
		t.Fatal("double ownership not detected")
	}
}
