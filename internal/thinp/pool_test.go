package thinp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

const blockSize = 512

func newTestPool(t testing.TB, dataBlocks uint64, opts Options) (*Pool, *storage.MemDevice, *storage.MemDevice) {
	t.Helper()
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	if opts.Entropy == nil {
		opts.Entropy = prng.NewSeededEntropy(1)
	}
	if opts.DummySrc == nil {
		opts.DummySrc = prng.NewSource(2)
	}
	p, err := CreatePool(data, meta, opts)
	if err != nil {
		t.Fatalf("CreatePool: %v", err)
	}
	return p, data, meta
}

// commitFull commits p after forcing the round to rebuild the image arena
// from the page tables and to rewrite the target slot in its entirety —
// the reference image the incremental commit is compared against.
func commitFull(p *Pool) error {
	p.commitMu.Lock()
	p.mu.Lock()
	p.structDirty = true
	p.pending[1-p.active].setAll()
	p.mu.Unlock()
	p.commitMu.Unlock()
	return p.Commit()
}

func TestPoolCreateThinAndRoundtrip(t *testing.T) {
	p, _, _ := newTestPool(t, 128, Options{})
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if thin.NumBlocks() != 64 || thin.BlockSize() != blockSize {
		t.Fatalf("geometry: %d blocks of %d", thin.NumBlocks(), thin.BlockSize())
	}
	src := bytes.Repeat([]byte{0xAA}, blockSize)
	if err := thin.WriteBlock(10, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := thin.ReadBlock(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, got) {
		t.Fatal("thin roundtrip mismatch")
	}
}

func TestThinUnprovisionedReadsZero(t *testing.T) {
	p, _, _ := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xFF}, blockSize)
	if err := thin.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if p.AllocatedBlocks() != 0 {
		t.Fatal("read provisioned a block")
	}
}

func TestThinProvisionOnFirstWriteOnly(t *testing.T) {
	p, _, _ := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if p.AllocatedBlocks() != 1 {
		t.Fatalf("allocated = %d after first write", p.AllocatedBlocks())
	}
	if err := thin.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if p.AllocatedBlocks() != 1 {
		t.Fatalf("allocated = %d after overwrite (should not re-provision)", p.AllocatedBlocks())
	}
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 1 {
		t.Fatalf("mapped = %d", mapped)
	}
}

func TestThinOverCommitAllowed(t *testing.T) {
	// Thin provisioning allows virtual sizes beyond physical capacity.
	p, _, _ := newTestPool(t, 16, Options{})
	if err := p.CreateThin(1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 1000); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if thin.NumBlocks() != 1000 {
		t.Fatalf("virtual size = %d", thin.NumBlocks())
	}
}

func TestPoolOutOfSpace(t *testing.T) {
	p, _, _ := newTestPool(t, 4, Options{})
	if err := p.CreateThin(1, 100); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 4; i++ {
		if err := thin.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := thin.WriteBlock(50, buf); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestThinDeviceErrors(t *testing.T) {
	p, _, _ := newTestPool(t, 16, Options{})
	if err := p.CreateThin(1, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 8); !errors.Is(err, ErrThinExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if _, err := p.Thin(9); !errors.Is(err, ErrNoSuchThin) {
		t.Fatalf("missing thin err = %v", err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(8, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range write err = %v", err)
	}
	if err := thin.ReadBlock(8, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range read err = %v", err)
	}
	if err := thin.WriteBlock(0, buf[:10]); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("bad buffer err = %v", err)
	}
}

func TestDeleteThinFreesBlocks(t *testing.T) {
	p, _, _ := newTestPool(t, 32, Options{})
	if err := p.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 5; i++ {
		if err := thin.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if p.AllocatedBlocks() != 5 {
		t.Fatalf("allocated = %d", p.AllocatedBlocks())
	}
	if err := p.DeleteThin(1); err != nil {
		t.Fatal(err)
	}
	if p.AllocatedBlocks() != 0 {
		t.Fatalf("allocated = %d after delete", p.AllocatedBlocks())
	}
	if err := p.DeleteThin(1); !errors.Is(err, ErrNoSuchThin) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDiscardFreesBlock(t *testing.T) {
	p, _, _ := newTestPool(t, 32, Options{})
	if err := p.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{1}, blockSize)
	if err := thin.WriteBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	if err := thin.Discard(2); err != nil {
		t.Fatal(err)
	}
	if p.AllocatedBlocks() != 0 {
		t.Fatalf("allocated = %d after discard", p.AllocatedBlocks())
	}
	// Discarded block reads zero again.
	if err := thin.ReadBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("discarded block did not read zero")
		}
	}
	// Discard of unprovisioned block is a no-op.
	if err := thin.Discard(3); err != nil {
		t.Fatal(err)
	}
}

func TestPoolPersistenceRoundtrip(t *testing.T) {
	p, data, meta := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(7, 16); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{0x5C}, blockSize)
	if err := thin.WriteBlock(9, src); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(3)})
	if err != nil {
		t.Fatalf("OpenPool: %v", err)
	}
	ids := p2.ThinIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 7 {
		t.Fatalf("ThinIDs = %v", ids)
	}
	thin2, err := p2.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := thin2.ReadBlock(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, got) {
		t.Fatal("data lost across pool reopen")
	}
	if p2.AllocatedBlocks() != 1 {
		t.Fatalf("allocated = %d after reopen", p2.AllocatedBlocks())
	}
}

func TestPoolUncommittedAllocationsLost(t *testing.T) {
	p, data, meta := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
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
	if p.PendingAllocations() != 1 {
		t.Fatalf("pending = %d", p.PendingAllocations())
	}
	// Reopen without committing: the allocation is gone (dm-thin crash
	// semantics).
	p2, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(3)})
	if err != nil {
		t.Fatal(err)
	}
	if p2.AllocatedBlocks() != 0 {
		t.Fatalf("allocated = %d, uncommitted state leaked", p2.AllocatedBlocks())
	}
}

func TestPoolCommitClearsTransaction(t *testing.T) {
	p, _, _ := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
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
	tx := p.TransactionID()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if p.PendingAllocations() != 0 {
		t.Fatalf("pending = %d after commit", p.PendingAllocations())
	}
	if p.TransactionID() != tx+1 {
		t.Fatalf("txID = %d, want %d", p.TransactionID(), tx+1)
	}
}

func TestThinSyncCommits(t *testing.T) {
	p, data, meta := newTestPool(t, 64, Options{})
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.Repeat([]byte{0x33}, blockSize)
	if err := thin.WriteBlock(4, src); err != nil {
		t.Fatal(err)
	}
	if err := thin.Sync(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(3)})
	if err != nil {
		t.Fatal(err)
	}
	thin2, err := p2.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := thin2.ReadBlock(4, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, got) {
		t.Fatal("Sync did not persist metadata")
	}
}

func TestOpenPoolRejectsGarbage(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 16)
	meta := storage.NewMemDevice(blockSize, 16)
	if _, err := OpenPool(data, meta, Options{}); !errors.Is(err, ErrCorruptMeta) {
		t.Fatalf("err = %v, want ErrCorruptMeta", err)
	}
}

func TestCreatePoolRejectsTinyMeta(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 1024)
	meta := storage.NewMemDevice(blockSize, 1)
	if _, err := CreatePool(data, meta, Options{}); !errors.Is(err, ErrMetaSpace) {
		t.Fatalf("err = %v, want ErrMetaSpace", err)
	}
}

func TestOpenPoolRejectsMismatchedDataDevice(t *testing.T) {
	p, _, meta := newTestPool(t, 64, Options{})
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	other := storage.NewMemDevice(blockSize, 32) // wrong size
	if _, err := OpenPool(other, meta, Options{}); !errors.Is(err, ErrCorruptMeta) {
		t.Fatalf("err = %v, want ErrCorruptMeta", err)
	}
}

// fixedPolicy fires a dummy write of count blocks into target on every
// provisioning write to the watched thin.
type fixedPolicy struct {
	watch  int
	target int
	count  int
}

func (f *fixedPolicy) OnProvision(thinID int) (int, int, bool) {
	if thinID != f.watch {
		return 0, 0, false
	}
	return f.target, f.count, true
}

func TestDummyPolicyFiresOnProvision(t *testing.T) {
	p, data, _ := newTestPool(t, 256, Options{
		Policy:    &fixedPolicy{watch: 1, target: 2, count: 3},
		Allocator: NewRandomAllocator(prng.NewSource(5)),
	})
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 64); err != nil {
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
	// 1 public block + 3 dummy blocks allocated.
	if got := p.AllocatedBlocks(); got != 4 {
		t.Fatalf("allocated = %d, want 4", got)
	}
	if got := p.DummyBlocksWritten(); got != 3 {
		t.Fatalf("dummy blocks = %d, want 3", got)
	}
	dummyMapped, err := p.MappedBlocks(2)
	if err != nil {
		t.Fatal(err)
	}
	if dummyMapped != 3 {
		t.Fatalf("dummy volume mapped = %d, want 3", dummyMapped)
	}
	// Dummy blocks must contain non-zero noise on the data device.
	vbs, err := p.MappedVBlocks(2)
	if err != nil {
		t.Fatal(err)
	}
	dummyThin, err := p.Thin(2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := dummyThin.ReadBlock(vbs[0], got); err != nil {
		t.Fatal(err)
	}
	var or byte
	for _, b := range got {
		or |= b
	}
	if or == 0 {
		t.Fatal("dummy block contains zeros, not noise")
	}
	_ = data
}

func TestDummyPolicyNotFiredOnOverwrite(t *testing.T) {
	p, _, _ := newTestPool(t, 128, Options{
		Policy: &fixedPolicy{watch: 1, target: 2, count: 1},
	})
	if err := p.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 64); err != nil {
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
	first := p.DummyBlocksWritten()
	for i := 0; i < 10; i++ {
		if err := thin.WriteBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.DummyBlocksWritten(); got != first {
		t.Fatalf("dummy blocks grew on overwrites: %d -> %d", first, got)
	}
}

func TestDummyWriteBestEffortWhenFull(t *testing.T) {
	// Pool with barely any space: dummy writes must degrade gracefully.
	p, _, _ := newTestPool(t, 2, Options{
		Policy: &fixedPolicy{watch: 1, target: 2, count: 10},
	})
	if err := p.CreateThin(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 4); err != nil {
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
	// 1 public + at most 1 dummy block; no error.
	if got := p.AllocatedBlocks(); got > 2 {
		t.Fatalf("allocated = %d > capacity", got)
	}
}

// Property: across arbitrary write workloads over multiple thins with the
// random allocator and dummy writes, no physical block is ever owned by two
// mappings — the global-bitmap isolation invariant (Sec. IV-A Q3).
func TestPropertyNoDoubleAllocation(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		src := prng.NewSource(seed)
		p, _, _ := newTestPoolQuick(seed)
		for id := 1; id <= 3; id++ {
			if err := p.CreateThin(id, 64); err != nil {
				return false
			}
		}
		buf := make([]byte, blockSize)
		for _, op := range opsRaw {
			id := int(op%3) + 1
			thin, err := p.Thin(id)
			if err != nil {
				return false
			}
			vb := uint64(op/3) % 64
			if _, err := src.Read(buf); err != nil {
				return false
			}
			if err := thin.WriteBlock(vb, buf); err != nil && !errors.Is(err, ErrNoSpace) {
				return false
			}
		}
		// Collect all physical blocks across mappings; check uniqueness and
		// bitmap consistency.
		seen := map[uint64]bool{}
		total := 0
		for _, id := range p.ThinIDs() {
			p.mu.Lock()
			tm := p.thins[id]
			ok := true
			tm.pt.forEach(func(_, pb uint64) bool {
				if seen[pb] || !p.bm.IsAllocated(pb) {
					ok = false
					return false
				}
				seen[pb] = true
				total++
				return true
			})
			p.mu.Unlock()
			if !ok {
				return false
			}
		}
		return uint64(total) == p.AllocatedBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func newTestPoolQuick(seed uint64) (*Pool, *storage.MemDevice, *storage.MemDevice) {
	data := storage.NewMemDevice(blockSize, 512)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(512, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(seed)),
		Policy:    &fixedPolicy{watch: 1, target: 3, count: 2},
		Entropy:   prng.NewSeededEntropy(seed),
		DummySrc:  prng.NewSource(seed + 1),
	})
	if err != nil {
		panic(err)
	}
	return p, data, meta
}

// Property: pool metadata survives commit/reopen for arbitrary workloads.
func TestPropertyPersistenceRoundtrip(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		if len(opsRaw) > 64 {
			opsRaw = opsRaw[:64]
		}
		src := prng.NewSource(seed)
		data := storage.NewMemDevice(blockSize, 256)
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
		p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(seed)})
		if err != nil {
			return false
		}
		if err := p.CreateThin(1, 128); err != nil {
			return false
		}
		thin, err := p.Thin(1)
		if err != nil {
			return false
		}
		content := map[uint64]byte{}
		buf := make([]byte, blockSize)
		for _, op := range opsRaw {
			vb := uint64(op) % 128
			fill := byte(op >> 8)
			for i := range buf {
				buf[i] = fill
			}
			if err := thin.WriteBlock(vb, buf); err != nil {
				return false
			}
			content[vb] = fill
		}
		if err := p.Commit(); err != nil {
			return false
		}
		p2, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(seed)})
		if err != nil {
			return false
		}
		thin2, err := p2.Thin(1)
		if err != nil {
			return false
		}
		got := make([]byte, blockSize)
		for vb, fill := range content {
			if err := thin2.ReadBlock(vb, got); err != nil {
				return false
			}
			for _, b := range got {
				if b != fill {
					return false
				}
			}
		}
		_ = src
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMetaBlocksNeededMonotone(t *testing.T) {
	small := MetaBlocksNeeded(100, 4096)
	large := MetaBlocksNeeded(10000, 4096)
	if small == 0 || large <= small {
		t.Fatalf("MetaBlocksNeeded not monotone: %d vs %d", small, large)
	}
}

func BenchmarkThinWriteSequentialAlloc(b *testing.B) {
	benchThinWrite(b, NewSequentialAllocator())
}

func BenchmarkThinWriteRandomAlloc(b *testing.B) {
	benchThinWrite(b, NewRandomAllocator(prng.NewSource(1)))
}

func benchThinWrite(b *testing.B, alloc Allocator) {
	data := storage.NewMemDevice(4096, 1<<16)
	meta := storage.NewMemDevice(4096, MetaBlocksNeeded(1<<16, 4096))
	p, err := CreatePool(data, meta, Options{
		Allocator: alloc,
		Entropy:   prng.NewSeededEntropy(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.CreateThin(1, 1<<16); err != nil {
		b.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := thin.WriteBlock(uint64(i)%(1<<16), buf); err != nil {
			b.Fatal(err)
		}
	}
}
