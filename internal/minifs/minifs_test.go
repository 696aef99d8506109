package minifs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

const blockSize = 512

func newFS(t testing.TB, blocks uint64) *FS {
	t.Helper()
	dev := storage.NewMemDevice(blockSize, blocks)
	fs, err := Format(dev, 64)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return fs
}

func TestCreateWriteReadRoundtrip(t *testing.T) {
	fs := newFS(t, 1024)
	f, err := fs.Create("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("plausibly deniable")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatalf("got %q, want %q", got, data)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestCrossBlockWrite(t *testing.T) {
	fs := newFS(t, 1024)
	f, err := fs.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*blockSize+100)
	if _, err := prng.NewSource(1).Read(data); err != nil {
		t.Fatal(err)
	}
	// Write at an unaligned offset crossing several blocks.
	if _, err := f.WriteAt(data, 57); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 57); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("cross-block roundtrip mismatch")
	}
	// Bytes before the write offset are a hole: zeros.
	head := make([]byte, 57)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range head {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
}

func TestLargeFileThroughIndirects(t *testing.T) {
	// 512-byte blocks: direct covers 10 blocks, single indirect 64 more.
	// Write enough to reach the double-indirect range.
	fs := newFS(t, 4096)
	f, err := fs.Create("huge")
	if err != nil {
		t.Fatal(err)
	}
	nBlocks := 10 + 64 + 130 // direct + indirect + into dindirect
	data := make([]byte, nBlocks*blockSize)
	if _, err := prng.NewSource(7).Read(data); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("large file roundtrip mismatch")
	}
}

func TestOverwriteMiddle(t *testing.T) {
	fs := newFS(t, 1024)
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{0xAA}, 2*blockSize)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xBB}, 100)
	if _, err := f.WriteAt(patch, int64(blockSize-50)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*blockSize)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	for i := 0; i < blockSize-50; i++ {
		if got[i] != 0xAA {
			t.Fatalf("byte %d = %#x, want AA", i, got[i])
		}
	}
	for i := blockSize - 50; i < blockSize+50; i++ {
		if got[i] != 0xBB {
			t.Fatalf("byte %d = %#x, want BB", i, got[i])
		}
	}
	if f.Size() != 2*blockSize {
		t.Fatalf("Size = %d, overwrite changed size", f.Size())
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	fs := newFS(t, 256)
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("12345"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 5 || !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt past end = (%d, %v), want (5, EOF)", n, err)
	}
	if _, err := f.ReadAt(buf, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt at offset past end err = %v, want EOF", err)
	}
}

func TestCreateErrors(t *testing.T) {
	fs := newFS(t, 256)
	if _, err := fs.Create("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("dup"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if _, err := fs.Create(""); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("empty name err = %v", err)
	}
	long := string(bytes.Repeat([]byte{'a'}, 256))
	if _, err := fs.Create(long); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("long name err = %v", err)
	}
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing err = %v", err)
	}
}

// freeBlocks is the number of free data blocks of fs.
func freeBlocks(fs *FS) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n uint64
	for _, used := range fs.bitmap {
		if !used {
			n++
		}
	}
	return n
}

func TestRemoveFreesSpace(t *testing.T) {
	fs := newFS(t, 512)
	freeBefore := freeBlocks(fs)
	f, err := fs.Create("victim")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 20*blockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if freeBlocks(fs) >= freeBefore {
		t.Fatal("write did not consume blocks")
	}
	if err := fs.Remove("victim"); err != nil {
		t.Fatal(err)
	}
	if got := freeBlocks(fs); got != freeBefore {
		t.Fatalf("free = %d after remove, want %d", got, freeBefore)
	}
	if _, err := fs.Open("victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open removed err = %v", err)
	}
	// Stale handle fails cleanly.
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrClosedFile) {
		t.Fatalf("stale handle write err = %v", err)
	}
	if err := fs.Remove("victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestListSorted(t *testing.T) {
	fs := newFS(t, 256)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := fs.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestPersistenceAcrossMount(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 2048)
	fs, err := Format(dev, 32)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("persist.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*blockSize)
	if _, err := prng.NewSource(3).Read(data); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("second"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	names := fs2.List()
	if len(names) != 2 || names[0] != "persist.bin" || names[1] != "second" {
		t.Fatalf("List after mount = %v", names)
	}
	f2, err := fs2.Open("persist.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("data lost across mount")
	}
	if f2.Size() != int64(len(data)) {
		t.Fatalf("Size after mount = %d", f2.Size())
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 64)
	if _, err := Mount(dev); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("err = %v, want ErrNotFormatted", err)
	}
}

func TestFormatRejectsTinyDevice(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 4)
	if _, err := Format(dev, 16); err == nil {
		t.Fatal("Format on 4-block device succeeded")
	}
}

func TestOutOfSpace(t *testing.T) {
	fs := newFS(t, 64) // tiny
	f, err := fs.Create("filler")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200*blockSize)
	_, err = f.WriteAt(big, 0)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestOutOfInodes(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 1024)
	fs, err := Format(dev, 4) // root + 2 usable (ino 0 unused)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("c"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

// writeRecorder records the index of every block written through it, in
// order.
type writeRecorder struct {
	storage.Device
	writes []uint64
}

func (r *writeRecorder) ReadBlock(idx uint64, dst []byte) error {
	return storage.DoBlock(r, storage.OpRead, idx, dst)
}

func (r *writeRecorder) WriteBlock(idx uint64, src []byte) error {
	return storage.DoBlock(r, storage.OpWrite, idx, src)
}

func (r *writeRecorder) Do(reqs []storage.Req) error {
	err := storage.Do(r.Device, reqs)
	for i := range reqs {
		if q := &reqs[i]; q.Op == storage.OpWrite && q.OK() {
			for b := 0; b < q.Blocks(); b++ {
				r.writes = append(r.writes, q.Start+uint64(b))
			}
		}
	}
	return err
}

func TestSpatialLocalityOfSequentialWrites(t *testing.T) {
	// The workload generators rely on minifs exhibiting FS-like spatial
	// locality (paper footnote 3). A fresh sequential file write must land
	// in mostly-ascending device blocks.
	rec := &writeRecorder{Device: storage.NewMemDevice(blockSize, 2048)}
	fs, err := Format(rec, 16)
	if err != nil {
		t.Fatal(err)
	}
	rec.writes = nil
	f, err := fs.Create("seq")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100*blockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	trace := rec.writes
	ascending := 0
	for i := 1; i < len(trace); i++ {
		if trace[i] == trace[i-1]+1 {
			ascending++
		}
	}
	if ratio := float64(ascending) / float64(len(trace)-1); ratio < 0.8 {
		t.Fatalf("sequential write only %.0f%% ascending", ratio*100)
	}
}

// Property: arbitrary write/read sequences on one file behave like an
// in-memory byte slice.
func TestPropertyFileMatchesShadow(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Len  uint8
		Fill byte
	}) bool {
		fs := newFSQuick()
		file, err := fs.Create("shadowed")
		if err != nil {
			return false
		}
		shadow := make([]byte, 1<<16)
		var maxEnd int
		for _, op := range ops {
			off := int(op.Off) % (1 << 14)
			length := int(op.Len) + 1
			data := bytes.Repeat([]byte{op.Fill}, length)
			if _, err := file.WriteAt(data, int64(off)); err != nil {
				return false
			}
			copy(shadow[off:off+length], data)
			if off+length > maxEnd {
				maxEnd = off + length
			}
		}
		if maxEnd == 0 {
			return true
		}
		got := make([]byte, maxEnd)
		if _, err := file.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
			return false
		}
		return bytes.Equal(got, shadow[:maxEnd])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func newFSQuick() *FS {
	dev := storage.NewMemDevice(blockSize, 1<<10)
	fs, err := Format(dev, 8)
	if err != nil {
		panic(err)
	}
	return fs
}

func BenchmarkFileSequentialWrite(b *testing.B) {
	dev := storage.NewMemDevice(4096, 1<<15)
	fs, err := Format(dev, 8)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fs.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 64*1024)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * int64(len(chunk)) % (100 << 20)
		if _, err := f.WriteAt(chunk, off%(60<<20)); err != nil {
			b.Fatal(err)
		}
	}
}
