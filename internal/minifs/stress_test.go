package minifs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// A root directory large enough to spill past the root inode's direct
// blocks must survive Sync/Mount.
func TestLargeDirectoryPersistence(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 8192)
	fs, err := Format(dev, 512)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400 // ~400 * 22 bytes ~ 8.8 KB of directory > 10 direct 512B blocks
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("file-%03d.dat", i)
		f, err := fs.Create(name)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := f.WriteAt([]byte(name), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	names := fs2.List()
	if len(names) != n {
		t.Fatalf("listed %d names, want %d", len(names), n)
	}
	// Spot-check contents.
	for _, i := range []int{0, 123, 399} {
		name := fmt.Sprintf("file-%03d.dat", i)
		f, err := fs2.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		buf := make([]byte, len(name))
		if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		if string(buf) != name {
			t.Fatalf("%s holds %q", name, buf)
		}
	}
}

// Repeated create/write/remove cycles must not leak blocks.
func TestChurnDoesNotLeakBlocks(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 2048)
	fs, err := Format(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	baseline := freeBlocks(fs)
	data := make([]byte, 50*blockSize)
	for cycle := 0; cycle < 20; cycle++ {
		f, err := fs.Create("churn")
		if err != nil {
			t.Fatalf("cycle %d create: %v", cycle, err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatalf("cycle %d write: %v", cycle, err)
		}
		if err := fs.Remove("churn"); err != nil {
			t.Fatalf("cycle %d remove: %v", cycle, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The root directory may have grown slightly, but data blocks must not
	// leak across cycles.
	if got := freeBlocks(fs); got+4 < baseline {
		t.Fatalf("leaked %d blocks over churn", baseline-got)
	}
	if err := fs.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after churn: %v", err)
	}
}

func TestCheckIntegrityDetectsCorruption(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 1024)
	fs, err := Format(dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 3*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckIntegrity(); err != nil {
		t.Fatalf("clean fs flagged: %v", err)
	}
	// Corrupt: free a block still referenced by the file.
	fs.mu.Lock()
	abs := fs.inodes[fs.dir["x"]].direct[0]
	fs.bitmap[abs-fs.sb.dataStart] = false
	fs.mu.Unlock()
	if err := fs.CheckIntegrity(); err == nil {
		t.Fatal("corruption not detected")
	}
}

// Sparse files: a write far past EOF creates holes that read as zeros and
// consume no blocks for the hole itself.
func TestSparseFileHoles(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 4096)
	fs, err := Format(dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	free := freeBlocks(fs)
	f, err := fs.Create("sparse")
	if err != nil {
		t.Fatal(err)
	}
	// One block at offset ~200 blocks.
	if _, err := f.WriteAt([]byte("tail"), 200*blockSize); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 200*blockSize+4 {
		t.Fatalf("Size = %d", f.Size())
	}
	used := free - freeBlocks(fs)
	if used > 4 { // data block + indirect machinery
		t.Fatalf("sparse write consumed %d blocks", used)
	}
	hole := make([]byte, blockSize)
	if _, err := f.ReadAt(hole, 50*blockSize); err != nil {
		t.Fatal(err)
	}
	for i, b := range hole {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
}

// The FS must propagate device faults without corrupting its cached state.
func TestFSSurvivesDeviceFault(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 2048)
	faulty := storage.NewFlakyDevice(mem, storage.FlakyOptions{})
	fs, err := Format(faulty, 32)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("stable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter(storage.OpWrite, 0, nil)
	if _, err := f.WriteAt(make([]byte, 10*blockSize), blockSize); err == nil {
		t.Fatal("write during fault succeeded")
	}
	if err := fs.Sync(); err == nil {
		t.Fatal("sync during fault succeeded")
	}
	faulty.Disarm()
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	got := make([]byte, 6)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("stable")) {
		t.Fatal("pre-fault data lost")
	}
}

// Interleaved writes to many files keep per-file content separate (the
// allocator must not hand the same block to two files).
func TestInterleavedFilesIsolation(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 4096)
	fs, err := Format(dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	const nFiles = 8
	files := make([]*File, nFiles)
	for i := range files {
		f, err := fs.Create(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	src := prng.NewSource(77)
	// Round-robin interleaved growth.
	for round := 0; round < 30; round++ {
		for i, f := range files {
			chunk := bytes.Repeat([]byte{byte(i + 1)}, blockSize/2)
			if _, err := f.WriteAt(chunk, int64(round)*int64(len(chunk))); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = src
	for i, f := range files {
		buf := make([]byte, 30*blockSize/2)
		if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		for j, b := range buf {
			if b != byte(i+1) {
				t.Fatalf("file %d byte %d = %d", i, j, b)
			}
		}
	}
}
