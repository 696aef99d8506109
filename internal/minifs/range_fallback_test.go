package minifs

import (
	"bytes"
	"math/rand"
	"testing"

	"mobiceal/internal/storage"
)

// plainDevice hides the vectored methods of a MemDevice so minifs runs on
// the generic per-block fallback, as it would over any third-party Device.
type plainDevice struct {
	d *storage.MemDevice
}

func (p plainDevice) ReadBlock(idx uint64, dst []byte) error  { return p.d.ReadBlock(idx, dst) }
func (p plainDevice) WriteBlock(idx uint64, src []byte) error { return p.d.WriteBlock(idx, src) }
func (p plainDevice) BlockSize() int                          { return p.d.BlockSize() }
func (p plainDevice) NumBlocks() uint64                       { return p.d.NumBlocks() }
func (p plainDevice) Sync() error                             { return p.d.Sync() }
func (p plainDevice) Close() error                            { return p.d.Close() }

// TestWriteAtUnwindsFreshBlocksOnFailure pre-stains the device, punches a
// hole into a file, then makes the device fail mid-write: the freshly
// allocated blocks must be unwound so the hole still reads zeros, not the
// stale stain.
func TestWriteAtUnwindsFreshBlocksOnFailure(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFlakyDevice(mem, storage.FlakyOptions{})
	fs, err := Format(fd, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("victim.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Stain the free space: create and remove a file full of 0xEE so the
	// blocks the next allocation hands out carry stale content.
	stain, err := fs.Create("stain.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stain.WriteAt(bytes.Repeat([]byte{0xEE}, 32*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("stain.bin"); err != nil {
		t.Fatal(err)
	}
	// Sparse file whose size covers a hole region.
	if _, err := f.WriteAt([]byte{1}, 40*blockSize); err != nil {
		t.Fatal(err)
	}
	// Fail the device mid-way through an 8-block write into the hole.
	fd.FailAfter(storage.OpWrite, 0, nil)
	if _, err := f.WriteAt(make([]byte, 8*blockSize), 8*blockSize); err == nil {
		t.Fatal("write over failing device succeeded")
	}
	fd.Disarm()
	// The hole must still read zeros — not the 0xEE stain of reallocated
	// blocks that never received their data.
	got := make([]byte, 8*blockSize)
	if _, err := f.ReadAt(got, 8*blockSize); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x after failed write, want 0", i, b)
		}
	}
	if err := fs.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after unwind: %v", err)
	}
}

// TestPartialWriteIntoFreshBlockZeroFills checks that a sub-block write
// landing on a freshly allocated block zero-fills the uncovered bytes
// instead of read-modify-writing whatever stale content the reused device
// block carried (e.g. a deleted file's data).
func TestPartialWriteIntoFreshBlockZeroFills(t *testing.T) {
	fs := newFS(t, 256)
	// Stain free space with a removed file full of 0xEE.
	stain, err := fs.Create("stain.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stain.WriteAt(bytes.Repeat([]byte{0xEE}, 32*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("stain.bin"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("b.bin")
	if err != nil {
		t.Fatal(err)
	}
	// Make the file large so the partial block is fully inside the size.
	if _, err := f.WriteAt([]byte{1}, 40*blockSize); err != nil {
		t.Fatal(err)
	}
	// 10-byte write into the middle of a hole block.
	off := int64(8*blockSize + 100)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAB}, 10), off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if _, err := f.ReadAt(got, 8*blockSize); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0)
		if i >= 100 && i < 110 {
			want = 0xAB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x (stale stain leaked into hole?)", i, b, want)
		}
	}
}

// TestFileIOOverNonRangeDevice checks the rewritten ReadAt/WriteAt behave
// identically whether or not the underlying device supports vectored I/O.
func TestFileIOOverNonRangeDevice(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 1024)
	fs, err := Format(plainDevice{mem}, 64)
	if err != nil {
		t.Fatalf("Format over non-range device: %v", err)
	}
	f, err := fs.Create("x.bin")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	shadow := make([]byte, 64*1024)
	for i := 0; i < 50; i++ {
		off := rng.Intn(len(shadow) - 1)
		n := rng.Intn(len(shadow)-off) + 1
		chunk := make([]byte, n)
		rng.Read(chunk)
		if _, err := f.WriteAt(chunk, int64(off)); err != nil {
			t.Fatalf("WriteAt(%d, %d bytes): %v", off, n, err)
		}
		copy(shadow[off:], chunk)
	}
	size := f.Size()
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, shadow[:size]) {
		t.Fatal("content over non-range device diverges from shadow")
	}
	if err := fs.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
