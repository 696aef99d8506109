package thinp

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// twinPools builds two pools with identical seeds and configuration so one
// can be driven block-at-a-time and the other vectored, and every piece of
// resulting state compared.
func twinPools(t *testing.T, dataBlocks uint64, mkOpts func() Options) (a, b *Pool) {
	t.Helper()
	build := func() *Pool {
		data := storage.NewMemDevice(blockSize, dataBlocks)
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
		p, err := CreatePool(data, meta, mkOpts())
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		return p
	}
	return build(), build()
}

// shape is one way of moving a block range through a thin: block by block,
// as one flat request, or as one request over a random segmentation.
type shape func(t *testing.T, src *prng.Source, thin *Thin, write bool, start uint64, buf []byte)

func perBlock(t *testing.T, _ *prng.Source, thin *Thin, write bool, start uint64, buf []byte) {
	for j := 0; j*blockSize < len(buf); j++ {
		op, blk := thin.ReadBlock, buf[j*blockSize:(j+1)*blockSize]
		if write {
			op = thin.WriteBlock
		}
		if err := op(start+uint64(j), blk); err != nil {
			t.Fatalf("block %d: %v", start+uint64(j), err)
		}
	}
}

func flat(t *testing.T, _ *prng.Source, thin *Thin, write bool, start uint64, buf []byte) {
	op := storage.ReadBlocks
	if write {
		op = storage.WriteBlocks
	}
	if err := op(thin, start, buf); err != nil {
		t.Fatalf("flat request at %d: %v", start, err)
	}
}

func segmented(t *testing.T, src *prng.Source, thin *Thin, write bool, start uint64, buf []byte) {
	op := storage.ReadBlocksVec
	if write {
		op = storage.WriteBlocksVec
	}
	if err := op(thin, start, vecOver(src, buf)); err != nil {
		t.Fatalf("segmented request at %d: %v", start, err)
	}
}

// requestShapeEquivalence drives twin pools with the same random workload
// — holes, overwrites, mid-range provisioning, under both allocators and
// with the dummy policy firing — one pool through shape a, the other
// through shape b, and requires everything to agree: the bytes read, and
// the pool state the two converge to (same mappings, same allocations,
// same dummy traffic). How a range was cut into requests and segments must
// not reach the allocator.
func requestShapeEquivalence(t *testing.T, a, b shape, seed uint64, dummyCount int, caseNames [3]string) {
	opts := func(alloc func() Allocator, policy DummyPolicy) func() Options {
		return func() Options {
			return Options{Allocator: alloc(), Policy: policy,
				Entropy: prng.NewSeededEntropy(seed), DummySrc: prng.NewSource(seed + 1)}
		}
	}
	random := func() Allocator { return NewRandomAllocator(prng.NewSource(seed + 2)) }
	for i, mkOpts := range []func() Options{
		opts(func() Allocator { return NewSequentialAllocator() }, nil),
		opts(random, nil),
		opts(random, &fixedPolicy{watch: 1, target: 2, count: dummyCount}),
	} {
		t.Run(caseNames[i], func(t *testing.T) {
			const virt = 96
			pa, pb := twinPools(t, 1024, mkOpts)
			var thins [2]*Thin
			for k, p := range []*Pool{pa, pb} {
				for id := 1; id <= 2; id++ {
					if err := p.CreateThin(id, virt); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if thins[k], err = p.Thin(1); err != nil {
					t.Fatal(err)
				}
			}
			src := prng.NewSource(777)
			compare := func(start, n uint64) {
				gotA, gotB := make([]byte, n*blockSize), make([]byte, n*blockSize)
				a(t, src, thins[0], false, start, gotA)
				b(t, src, thins[1], false, start, gotB)
				if !bytes.Equal(gotA, gotB) {
					t.Fatalf("read mismatch at %d (%d blocks)", start, n)
				}
			}
			for i := 0; i < 120; i++ {
				start := src.Uint64n(virt)
				n := 1 + src.Uint64n(virt-start)
				if src.Uint64n(3) == 0 {
					compare(start, n)
					continue
				}
				buf := make([]byte, n*blockSize)
				if _, err := src.Read(buf); err != nil {
					t.Fatal(err)
				}
				a(t, src, thins[0], true, start, buf)
				b(t, src, thins[1], true, start, buf)
			}
			for _, p := range []*Pool{pa, pb} {
				if err := p.CheckIntegrity(); err != nil {
					t.Fatalf("CheckIntegrity: %v", err)
				}
			}
			for id := 1; id <= 2; id++ {
				blksA, err := pa.PhysicalBlocks(id)
				if err != nil {
					t.Fatal(err)
				}
				blksB, err := pb.PhysicalBlocks(id)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(blksA, blksB) {
					t.Fatalf("thin %d: physical blocks differ:\n %v\n %v", id, blksA, blksB)
				}
			}
			if pa.DummyBlocksWritten() != pb.DummyBlocksWritten() {
				t.Fatalf("dummy blocks: %d vs %d", pa.DummyBlocksWritten(), pb.DummyBlocksWritten())
			}
			compare(0, virt)
		})
	}
}

// TestRangeMatchesBlockwiseThin: one flat request is the per-block loop.
func TestRangeMatchesBlockwiseThin(t *testing.T) {
	requestShapeEquivalence(t, perBlock, flat, 11, 2, [3]string{"sequential", "random", "dummy-policy"})
}

// TestVecMatchesFlatThin: a random segmentation is the flat request.
func TestVecMatchesFlatThin(t *testing.T) {
	requestShapeEquivalence(t, flat, segmented, 21, 3, [3]string{"sequential", "random-alloc", "dummy-policy"})
}

func TestThinRangeValidation(t *testing.T) {
	p, _, _ := newTestPool(t, 128, Options{})
	if err := p.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, blockSize+1)); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned err = %v, want ErrBadBuffer", err)
	}
	if err := storage.ReadBlocks(thin, 14, make([]byte, 3*blockSize)); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("overrun err = %v, want ErrOutOfRange", err)
	}
	if err := storage.WriteBlocks(thin, 0, nil); err != nil {
		t.Fatalf("zero-length write: %v", err)
	}
	if p.AllocatedBlocks() != 0 {
		t.Fatal("failed range writes provisioned blocks")
	}
}

// TestThinRangeFaultPropagation arms a fault under the data device and
// verifies the vectored write reports it and leaves the pool consistent.
func TestThinRangeFaultPropagation(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFlakyDevice(inner, storage.FlakyOptions{})
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(fd, meta, Options{Entropy: prng.NewSeededEntropy(3)})
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
	fd.FailAfter(storage.OpWrite, 4, nil)
	err = storage.WriteBlocks(thin, 0, bytes.Repeat([]byte{0xCD}, 16*blockSize))
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool inconsistent after injected fault: %v", err)
	}
	// The device completed exactly 4 blocks before the fault (partial
	// completion is block-granular); their provisions survive with their
	// data intact, while every provision whose data never landed is
	// unwound and reads back as zeros, not stale physical content.
	if got := p.AllocatedBlocks(); got != 4 {
		t.Fatalf("allocated = %d after partially completed range write, want 4", got)
	}
	fd.Disarm()
	readBack := make([]byte, 16*blockSize)
	if err := storage.ReadBlocks(thin, 0, readBack); err != nil {
		t.Fatal(err)
	}
	for i, b := range readBack {
		want := byte(0)
		if i < 4*blockSize {
			want = 0xCD
		}
		if b != want {
			t.Fatalf("byte %d = %#x after faulted write, want %#x", i, b, want)
		}
	}
	// The volume remains usable after the fault clears.
	if err := storage.WriteBlocks(thin, 0, make([]byte, 16*blockSize)); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
	if err := storage.ReadBlocks(thin, 0, make([]byte, 16*blockSize)); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
}

// TestBatchProvisionIntegrity provisions large ranges in one call and
// checks the pool invariants and the per-provision dummy trigger count.
func TestBatchProvisionIntegrity(t *testing.T) {
	pol := &fixedPolicy{watch: 1, target: 2, count: 1}
	p, _, _ := newTestPool(t, 4096, Options{
		Policy:   pol,
		Entropy:  prng.NewSeededEntropy(5),
		DummySrc: prng.NewSource(6),
	})
	if err := p.CreateThin(1, 512); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 512); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, 256*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity after batch provisioning: %v", err)
	}
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 256 {
		t.Fatalf("mapped = %d, want 256", mapped)
	}
	// The policy is consulted once per provisioned block (Sec. IV-B
	// trigger semantics survive batching).
	if p.DummyBlocksWritten() != 256 {
		t.Fatalf("dummy blocks = %d, want 256 (one per provision)", p.DummyBlocksWritten())
	}
	// Overwriting the same range provisions nothing and fires nothing.
	before := p.DummyBlocksWritten()
	if err := storage.WriteBlocks(thin, 0, make([]byte, 256*blockSize)); err != nil {
		t.Fatal(err)
	}
	if p.DummyBlocksWritten() != before {
		t.Fatal("overwrite fired the dummy policy")
	}
}

// TestProvisionUnwindOnDummyFailure arms a fault so the dummy-write noise
// lands on a dead device: the triggering provision must be unwound, leaving
// the vblock unmapped (reads zeros) and the pool consistent.
func TestProvisionUnwindOnDummyFailure(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFlakyDevice(inner, storage.FlakyOptions{})
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(fd, meta, Options{
		Policy:   &fixedPolicy{watch: 1, target: 2, count: 1},
		Entropy:  prng.NewSeededEntropy(8),
		DummySrc: prng.NewSource(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if err := p.CreateThin(id, 64); err != nil {
			t.Fatal(err)
		}
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	fd.FailAfter(storage.OpWrite, 0, nil) // the very first write — the dummy noise — fails
	src := bytes.Repeat([]byte{0xAB}, blockSize)
	if err := thin.WriteBlock(5, src); err == nil {
		t.Fatal("write with failing dummy noise succeeded")
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool inconsistent after unwound provision: %v", err)
	}
	if got := p.AllocatedBlocks(); got != 0 {
		t.Fatalf("allocated = %d after unwind, want 0", got)
	}
	fd.Disarm()
	got := make([]byte, blockSize)
	if err := thin.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwound vblock byte %d = %#x, want 0 (hole)", i, b)
		}
	}
}

func TestDeleteThinClearsPendingAllocations(t *testing.T) {
	p, _, _ := newTestPool(t, 256, Options{})
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := p.PendingAllocations(); got != 8 {
		t.Fatalf("pending = %d, want 8", got)
	}
	if err := p.DeleteThin(1); err != nil {
		t.Fatal(err)
	}
	// The freed blocks must leave the transaction record like discard
	// does; otherwise PendingAllocations over-counts and a rollback would
	// re-mark freed blocks allocated.
	if got := p.PendingAllocations(); got != 0 {
		t.Fatalf("pending after DeleteThin = %d, want 0", got)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDiscardRange exercises the vectored TRIM path: a run-length discard
// over a mix of mapped and unmapped blocks frees exactly the mapped ones.
func TestDiscardRange(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 256)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(12)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 128); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// Map blocks 0..15 and 32..39, leaving a hole in between.
	if err := storage.WriteBlocks(thin, 0, bytes.Repeat([]byte{0xAB}, 16*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 32, bytes.Repeat([]byte{0xAB}, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	// Discard [8, 36): 8 mapped + 16 holes + 4 mapped.
	if err := storage.Discard(thin, 8, 28); err != nil {
		t.Fatal(err)
	}
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 12 {
		t.Fatalf("mapped = %d after range discard, want 12", mapped)
	}
	if got := p.AllocatedBlocks(); got != 12 {
		t.Fatalf("allocated = %d after range discard, want 12", got)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Discarded blocks read back as zeros; surviving blocks keep data.
	buf := make([]byte, blockSize)
	for _, vb := range []uint64{8, 15, 35} {
		if err := thin.ReadBlock(vb, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 {
			t.Fatalf("vblock %d not zero after discard", vb)
		}
	}
	for _, vb := range []uint64{0, 7, 36, 39} {
		if err := thin.ReadBlock(vb, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xAB {
			t.Fatalf("vblock %d lost its data", vb)
		}
	}
	// Out-of-range and empty ranges behave like the read/write range ops.
	if err := storage.Discard(thin, 120, 16); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("overrun discard err = %v, want ErrOutOfRange", err)
	}
	if err := storage.Discard(thin, 0, 0); err != nil {
		t.Fatalf("empty discard: %v", err)
	}
	// Round-trip: the discarded state survives commit and reload.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(13)})
	if err != nil {
		t.Fatal(err)
	}
	reMapped, err := re.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if reMapped != 12 {
		t.Fatalf("mapped after reload = %d, want 12", reMapped)
	}
}
