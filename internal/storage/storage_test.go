package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
)

const testBlockSize = 512

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)
	}
}

func TestMemDeviceReadWriteRoundtrip(t *testing.T) {
	d := NewMemDevice(testBlockSize, 64)
	src := make([]byte, testBlockSize)
	fillPattern(src, 7)
	if err := d.WriteBlock(5, src); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	dst := make([]byte, testBlockSize)
	if err := d.ReadBlock(5, dst); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read back different data")
	}
}

func TestMemDeviceUnwrittenReadsZero(t *testing.T) {
	d := NewMemDevice(testBlockSize, 8)
	dst := make([]byte, testBlockSize)
	fillPattern(dst, 1) // dirty the buffer
	if err := d.ReadBlock(3, dst); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d of unwritten block is %#x, want 0", i, b)
		}
	}
}

func TestMemDeviceOutOfRange(t *testing.T) {
	d := NewMemDevice(testBlockSize, 8)
	buf := make([]byte, testBlockSize)
	if err := d.ReadBlock(8, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadBlock(8) err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteBlock(100, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteBlock(100) err = %v, want ErrOutOfRange", err)
	}
}

func TestMemDeviceBadBuffer(t *testing.T) {
	d := NewMemDevice(testBlockSize, 8)
	short := make([]byte, testBlockSize-1)
	if err := d.ReadBlock(0, short); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("short read err = %v, want ErrBadBuffer", err)
	}
	long := make([]byte, testBlockSize+1)
	if err := d.WriteBlock(0, long); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("long write err = %v, want ErrBadBuffer", err)
	}
}

func TestMemDeviceClose(t *testing.T) {
	d := NewMemDevice(testBlockSize, 8)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, testBlockSize)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
	if err := d.WriteBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v, want ErrClosed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close err = %v, want ErrClosed", err)
	}
}

func TestMemDeviceWriteDoesNotAliasCaller(t *testing.T) {
	d := NewMemDevice(testBlockSize, 8)
	src := make([]byte, testBlockSize)
	fillPattern(src, 3)
	if err := d.WriteBlock(0, src); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	src[0] = ^src[0] // mutate caller buffer after the write
	dst := make([]byte, testBlockSize)
	if err := d.ReadBlock(0, dst); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if dst[0] == src[0] {
		t.Fatal("device aliased the caller's write buffer")
	}
}

func TestNoiseBackgroundDeterministic(t *testing.T) {
	a := NewNoiseBackground(9)
	b := NewNoiseBackground(9)
	bufA := make([]byte, testBlockSize)
	bufB := make([]byte, testBlockSize)
	a.FillBlock(17, bufA)
	b.FillBlock(17, bufB)
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("same seed+index noise differs")
	}
	b.FillBlock(18, bufB)
	if bytes.Equal(bufA, bufB) {
		t.Fatal("different blocks produced identical noise")
	}
	c := NewNoiseBackground(10)
	c.FillBlock(17, bufB)
	if bytes.Equal(bufA, bufB) {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestNoiseBackgroundEqual(t *testing.T) {
	if !NewNoiseBackground(1).Equal(NewNoiseBackground(1)) {
		t.Fatal("equal seeds not Equal")
	}
	if NewNoiseBackground(1).Equal(NewNoiseBackground(2)) {
		t.Fatal("different seeds Equal")
	}
	if NewNoiseBackground(1).Equal(ZeroBackground{}) {
		t.Fatal("noise Equal zero")
	}
	if !(ZeroBackground{}).Equal(ZeroBackground{}) {
		t.Fatal("zero not Equal zero")
	}
}

func TestMemDeviceNoiseBackgroundRead(t *testing.T) {
	bg := NewNoiseBackground(5)
	d := NewMemDeviceBackground(testBlockSize, 16, bg)
	got := make([]byte, testBlockSize)
	want := make([]byte, testBlockSize)
	if err := d.ReadBlock(4, got); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	bg.FillBlock(4, want)
	if !bytes.Equal(got, want) {
		t.Fatal("unwritten block does not match background")
	}
	// Overwrite, then the write wins.
	src := make([]byte, testBlockSize)
	fillPattern(src, 9)
	if err := d.WriteBlock(4, src); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if err := d.ReadBlock(4, got); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("written block did not override background")
	}
}

func TestSnapshotIsImmutablePointInTime(t *testing.T) {
	d := NewMemDevice(testBlockSize, 32)
	src := make([]byte, testBlockSize)
	fillPattern(src, 1)
	if err := d.WriteBlock(2, src); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	snap := d.Snapshot()

	// Mutate the device after the snapshot.
	fillPattern(src, 2)
	if err := d.WriteBlock(2, src); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}

	got := make([]byte, testBlockSize)
	if err := snap.ReadBlock(2, got); err != nil {
		t.Fatalf("snapshot ReadBlock: %v", err)
	}
	want := make([]byte, testBlockSize)
	fillPattern(want, 1)
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot content changed after device mutation")
	}
	if err := snap.WriteBlock(2, src); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot write err = %v, want ErrReadOnly", err)
	}
}

func TestSnapshotDiffFindsExactlyChangedBlocks(t *testing.T) {
	d := NewMemDevice(testBlockSize, 64)
	buf := make([]byte, testBlockSize)
	fillPattern(buf, 1)
	for _, idx := range []uint64{1, 5, 9} {
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	}
	s1 := d.Snapshot()

	fillPattern(buf, 2)
	for _, idx := range []uint64{5, 30} { // change one old, one new
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	}
	// Rewrite block 1 with identical content: must NOT appear in diff.
	fillPattern(buf, 1)
	if err := d.WriteBlock(1, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	s2 := d.Snapshot()

	diff := s1.Diff(s2)
	want := []uint64{5, 30}
	if len(diff) != len(want) {
		t.Fatalf("diff = %v, want %v", diff, want)
	}
	for i := range want {
		if diff[i] != want[i] {
			t.Fatalf("diff = %v, want %v", diff, want)
		}
	}
}

func TestSnapshotDiffSymmetric(t *testing.T) {
	d := NewMemDevice(testBlockSize, 16)
	buf := make([]byte, testBlockSize)
	s1 := d.Snapshot()
	fillPattern(buf, 3)
	if err := d.WriteBlock(7, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	s2 := d.Snapshot()
	a := s1.Diff(s2)
	b := s2.Diff(s1)
	if len(a) != 1 || len(b) != 1 || a[0] != 7 || b[0] != 7 {
		t.Fatalf("diffs not symmetric: %v vs %v", a, b)
	}
}

func TestSnapshotDiffNoiseBackground(t *testing.T) {
	// With a noise background, writing actual noise-identical content is
	// practically impossible, so any write to a fresh block shows up.
	d := NewMemDeviceBackground(testBlockSize, 32, NewNoiseBackground(42))
	s1 := d.Snapshot()
	buf := make([]byte, testBlockSize)
	fillPattern(buf, 9)
	if err := d.WriteBlock(20, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	s2 := d.Snapshot()
	diff := s1.Diff(s2)
	if len(diff) != 1 || diff[0] != 20 {
		t.Fatalf("diff = %v, want [20]", diff)
	}
}

func TestSliceDeviceMapsOffsets(t *testing.T) {
	parent := NewMemDevice(testBlockSize, 100)
	s, err := NewSliceDevice(parent, 10, 20)
	if err != nil {
		t.Fatalf("NewSliceDevice: %v", err)
	}
	if s.NumBlocks() != 20 {
		t.Fatalf("NumBlocks = %d, want 20", s.NumBlocks())
	}
	buf := make([]byte, testBlockSize)
	fillPattern(buf, 5)
	if err := s.WriteBlock(0, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	got := make([]byte, testBlockSize)
	if err := parent.ReadBlock(10, got); err != nil {
		t.Fatalf("parent ReadBlock: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("slice block 0 did not land at parent block 10")
	}
	if err := s.ReadBlock(19, got); err != nil {
		t.Fatalf("ReadBlock(19): %v", err)
	}
	if err := s.ReadBlock(20, got); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadBlock(20) err = %v, want ErrOutOfRange", err)
	}
	if err := s.WriteBlock(20, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteBlock(20) err = %v, want ErrOutOfRange", err)
	}
}

func TestSliceDeviceRejectsBadRange(t *testing.T) {
	parent := NewMemDevice(testBlockSize, 10)
	if _, err := NewSliceDevice(parent, 5, 6); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong slice err = %v, want ErrOutOfRange", err)
	}
	if _, err := NewSliceDevice(parent, 10, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("offset-at-end slice err = %v, want ErrOutOfRange", err)
	}
	if _, err := NewSliceDevice(parent, 0, 10); err != nil {
		t.Fatalf("full-device slice: %v", err)
	}
}

func TestStatsDeviceCounts(t *testing.T) {
	d := NewStatsDevice(NewMemDevice(testBlockSize, 16))
	buf := make([]byte, testBlockSize)
	for i := 0; i < 3; i++ {
		if err := d.WriteBlock(uint64(i), buf); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := d.ReadBlock(0, buf); err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := d.Metrics().Snapshot()
	if st.WriteBlocks != 3 || st.ReadBlocks != 5 || st.Syncs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWrite != 3*testBlockSize || st.BytesRead != 5*testBlockSize {
		t.Fatalf("byte counts = %+v", st)
	}
}

func TestStatsDeviceDoesNotCountFailedIO(t *testing.T) {
	d := NewStatsDevice(NewMemDevice(testBlockSize, 4))
	buf := make([]byte, testBlockSize)
	if err := d.WriteBlock(99, buf); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := d.ReadBlock(99, buf); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if st := d.Metrics().Snapshot(); st.WriteBlocks != 0 || st.ReadBlocks != 0 {
		t.Fatalf("failed I/O was counted: %+v", st)
	}
}

func TestFileDeviceRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.bin")
	d, err := CreateFileDevice(path, testBlockSize, 32)
	if err != nil {
		t.Fatalf("CreateFileDevice: %v", err)
	}
	src := make([]byte, testBlockSize)
	fillPattern(src, 8)
	if err := d.WriteBlock(30, src); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := OpenFileDevice(path, testBlockSize)
	if err != nil {
		t.Fatalf("OpenFileDevice: %v", err)
	}
	defer func() {
		if err := d2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if d2.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d, want 32", d2.NumBlocks())
	}
	got := make([]byte, testBlockSize)
	if err := d2.ReadBlock(30, got); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(src, got) {
		t.Fatal("persisted block mismatch")
	}
}

func TestFileDeviceCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.bin")
	d, err := CreateFileDevice(path, testBlockSize, 4)
	if err != nil {
		t.Fatalf("CreateFileDevice: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	buf := make([]byte, testBlockSize)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
}

func TestOpenFileDeviceRejectsMisalignedImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img.bin")
	d, err := CreateFileDevice(path, testBlockSize, 4)
	if err != nil {
		t.Fatalf("CreateFileDevice: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := OpenFileDevice(path, testBlockSize+1); err == nil {
		t.Fatal("expected error opening with mismatched block size")
	}
}

func TestReadWriteFullHelpers(t *testing.T) {
	d := NewMemDevice(testBlockSize, 16)
	data := make([]byte, 4*testBlockSize)
	src := prng.NewSource(77)
	if _, err := src.Read(data); err != nil {
		t.Fatalf("prng Read: %v", err)
	}
	if err := WriteFull(d, 2, data); err != nil {
		t.Fatalf("WriteFull: %v", err)
	}
	got, err := ReadFull(d, 2, 4)
	if err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("ReadFull mismatch")
	}
	if err := WriteFull(d, 0, data[:testBlockSize+1]); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("misaligned WriteFull err = %v, want ErrBadBuffer", err)
	}
}

// Property: for any sequence of writes, reading back any written block
// returns the last value written to it.
func TestMemDevicePropertyLastWriteWins(t *testing.T) {
	const nBlocks = 32
	f := func(ops []struct {
		Idx  uint16
		Seed byte
	}) bool {
		d := NewMemDevice(testBlockSize, nBlocks)
		last := map[uint64]byte{}
		buf := make([]byte, testBlockSize)
		for _, op := range ops {
			idx := uint64(op.Idx) % nBlocks
			fillPattern(buf, op.Seed)
			if err := d.WriteBlock(idx, buf); err != nil {
				return false
			}
			last[idx] = op.Seed
		}
		got := make([]byte, testBlockSize)
		want := make([]byte, testBlockSize)
		for idx, seed := range last {
			if err := d.ReadBlock(idx, got); err != nil {
				return false
			}
			fillPattern(want, seed)
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Diff(s1, s2) is empty iff no effective change happened between
// the snapshots.
func TestSnapshotPropertyDiffEmptyOnNoChange(t *testing.T) {
	f := func(seed uint64, writes uint8) bool {
		src := prng.NewSource(seed)
		d := NewMemDevice(testBlockSize, 64)
		buf := make([]byte, testBlockSize)
		for i := 0; i < int(writes%16); i++ {
			if _, err := src.Read(buf); err != nil {
				return false
			}
			if err := d.WriteBlock(src.Uint64n(64), buf); err != nil {
				return false
			}
		}
		s1 := d.Snapshot()
		s2 := d.Snapshot()
		return len(s1.Diff(s2)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
