package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// shimVIO scripts the outcome of each vectored-transfer attempt: every
// attempt consumes one step (moving at most step.max bytes through the
// real file, then returning step.err), and an exhausted script falls back
// to full transfers. It substitutes for the platform vectorIO so the
// retry loop's EINTR / short-count / partial-failure behaviour is testable
// deterministically on any platform.
type shimVIO struct {
	steps []shimStep
}

type shimStep struct {
	max int   // byte cap for this attempt; <0 = unlimited
	err error // returned alongside whatever moved
}

func (s *shimVIO) pop() shimStep {
	if len(s.steps) == 0 {
		return shimStep{max: -1}
	}
	st := s.steps[0]
	s.steps = s.steps[1:]
	return st
}

func (s *shimVIO) readv(f *os.File, fd int, segs [][]byte, off int64) (int, error) {
	return s.move(f, false, segs, off)
}

func (s *shimVIO) writev(f *os.File, fd int, segs [][]byte, off int64) (int, error) {
	return s.move(f, true, segs, off)
}

func (s *shimVIO) move(f *os.File, write bool, segs [][]byte, off int64) (int, error) {
	st := s.pop()
	done := 0
	for _, seg := range segs {
		if st.max >= 0 && done+len(seg) > st.max {
			seg = seg[:st.max-done]
		}
		if len(seg) == 0 {
			break
		}
		var n int
		var err error
		if write {
			n, err = f.WriteAt(seg, off+int64(done))
		} else {
			n, err = f.ReadAt(seg, off+int64(done))
		}
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, st.err
}

// newTestFileDevice creates a FileDevice over a fresh temp image.
func newTestFileDevice(t *testing.T, blockSize int, numBlocks uint64, opts FileOptions) *FileDevice {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img")
	d, err := CreateFileDeviceWith(path, blockSize, numBlocks, opts)
	if err != nil {
		t.Fatalf("CreateFileDeviceWith: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestFileDeviceMatchesMemReference drives a randomized mixed workload —
// flat and vectored, single- and multi-segment — through a real file-backed
// device and a MemDevice reference and requires byte equivalence
// throughout. This is the storage leg of the vec-vs-flat equivalence suite.
func TestFileDeviceMatchesMemReference(t *testing.T) {
	const (
		bs     = 512
		blocks = 256
		ops    = 400
	)
	rng := rand.New(rand.NewSource(1859))
	fd := newTestFileDevice(t, bs, blocks, FileOptions{})
	ref := NewMemDevice(bs, blocks)

	for i := 0; i < ops; i++ {
		start := uint64(rng.Intn(blocks - 16))
		n := rng.Intn(8) + 1
		switch rng.Intn(4) {
		case 0: // flat range write
			buf := make([]byte, n*bs)
			rng.Read(buf)
			if err := WriteBlocks(fd, start, buf); err != nil {
				t.Fatalf("op %d WriteBlocks: %v", i, err)
			}
			if err := WriteBlocks(ref, start, buf); err != nil {
				t.Fatal(err)
			}
		case 1: // vectored write, random segmentation
			v := randVec(rng, bs, n)
			if err := WriteBlocksVec(fd, start, v); err != nil {
				t.Fatalf("op %d WriteBlocksVec: %v", i, err)
			}
			if err := WriteBlocksVec(ref, start, v); err != nil {
				t.Fatal(err)
			}
		case 2: // flat range read
			got := make([]byte, n*bs)
			want := make([]byte, n*bs)
			if err := ReadBlocks(fd, start, got); err != nil {
				t.Fatalf("op %d ReadBlocks: %v", i, err)
			}
			if err := ReadBlocks(ref, start, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: flat read mismatch at %d+%d", i, start, n)
			}
		case 3: // vectored read, random segmentation
			v := randVec(rng, bs, n)
			if err := ReadBlocksVec(fd, start, v); err != nil {
				t.Fatalf("op %d ReadBlocksVec: %v", i, err)
			}
			want := make([]byte, n*bs)
			if err := ReadBlocks(ref, start, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(flatten(v), want) {
				t.Fatalf("op %d: vec read mismatch at %d+%d", i, start, n)
			}
		}
	}
	got := make([]byte, blocks*bs)
	if err := ReadBlocks(fd, 0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, blocks*bs)
	if err := ReadBlocks(ref, 0, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("final file contents diverge from the MemDevice reference")
	}
}

// randVec builds an n-block vec with a random segment split, filled with
// random bytes.
func randVec(rng *rand.Rand, bs, n int) BlockVec {
	var segs [][]byte
	for left := n; left > 0; {
		k := rng.Intn(left) + 1
		seg := make([]byte, k*bs)
		rng.Read(seg)
		segs = append(segs, seg)
		left -= k
	}
	return Vec(bs, segs...)
}

// TestFileDeviceOneSyscallPerVec pins the tentpole's core claim: a
// coalesced vec goes down as ONE vectored syscall per attempt, regardless
// of how many segments it scatters over.
func TestFileDeviceOneSyscallPerVec(t *testing.T) {
	const bs = 512
	d := newTestFileDevice(t, bs, 64, FileOptions{})

	var wsegs [][]byte
	for i := 0; i < 7; i++ {
		seg := make([]byte, bs)
		seg[0] = byte(i + 1)
		wsegs = append(wsegs, seg)
	}
	wv := Vec(bs, wsegs...)
	if err := WriteBlocksVec(d, 3, wv); err != nil {
		t.Fatal(err)
	}
	sc := d.Syscalls()
	if sc.PwritevCalls != 1 || sc.WriteSegs != 7 {
		t.Fatalf("7-segment vec write: %d calls / %d segs, want 1 / 7",
			sc.PwritevCalls, sc.WriteSegs)
	}

	rv := Vec(bs, make([]byte, 2*bs), make([]byte, bs), make([]byte, 4*bs))
	if err := ReadBlocksVec(d, 3, rv); err != nil {
		t.Fatal(err)
	}
	sc = d.Syscalls()
	if sc.PreadvCalls != 1 || sc.ReadSegs != 3 {
		t.Fatalf("3-segment vec read: %d calls / %d segs, want 1 / 3",
			sc.PreadvCalls, sc.ReadSegs)
	}
	if !bytes.Equal(flatten(rv), flatten(wv)) {
		t.Fatal("vec read returned different bytes than the vec write stored")
	}
	if sc.EintrRetries != 0 || sc.ShortTransfers != 0 || sc.BounceCopies != 0 {
		t.Fatalf("clean transfers moved retry counters: %+v", sc)
	}
}

// TestFileDeviceShortTransferResumes scripts two short attempts and checks
// the retry loop continues from where the kernel stopped — the final bytes
// must be complete and correct, with the continuation visible only in the
// counters.
func TestFileDeviceShortTransferResumes(t *testing.T) {
	const bs = 512
	d := newTestFileDevice(t, bs, 16, FileOptions{})
	shim := &shimVIO{steps: []shimStep{{max: bs}, {max: bs}}}
	d.vio = shim

	want := make([]byte, 4*bs)
	rand.New(rand.NewSource(7)).Read(want)
	v := Vec(bs, want[:bs], want[bs:2*bs], want[2*bs:3*bs], want[3*bs:])
	if err := WriteBlocksVec(d, 2, v); err != nil {
		t.Fatalf("short-transfer write: %v", err)
	}
	sc := d.Syscalls()
	if sc.PwritevCalls != 3 || sc.ShortTransfers != 2 {
		t.Fatalf("calls %d shorts %d, want 3 / 2", sc.PwritevCalls, sc.ShortTransfers)
	}
	// First attempt saw 4 segments, the continuations 3 and 2.
	if sc.WriteSegs != 4+3+2 {
		t.Fatalf("write segs %d, want 9", sc.WriteSegs)
	}
	got := make([]byte, 4*bs)
	if err := ReadBlocks(d, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed transfer corrupted the payload")
	}
}

var errBoom = errors.New("boom")

// TestFileDevicePartialErrorRebasing pins the PartialError contract: a hard
// failure after a transferred prefix reports the WHOLE blocks completed
// across the entire transfer, not the failing attempt, and a failure at
// byte zero surfaces bare.
func TestFileDevicePartialErrorRebasing(t *testing.T) {
	const bs = 512
	d := newTestFileDevice(t, bs, 16, FileOptions{})
	// One block moves cleanly (short), then attempt two moves 1.5 more
	// blocks and dies: 2.5 blocks transferred overall → Done must be 2.
	d.vio = &shimVIO{steps: []shimStep{{max: bs}, {max: bs + bs/2, err: errBoom}}}
	err := WriteBlocks(d, 0, make([]byte, 4*bs))
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("partial failure: %v, want PartialError", err)
	}
	if pe.Done != 2 {
		t.Fatalf("Done = %d, want 2 (rebased over the whole transfer)", pe.Done)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("PartialError does not wrap the device error: %v", err)
	}

	// Failure before any byte moved: bare error, no PartialError framing.
	d.vio = &shimVIO{steps: []shimStep{{max: 0, err: errBoom}}}
	err = WriteBlocks(d, 0, make([]byte, bs))
	if !errors.Is(err, errBoom) {
		t.Fatalf("zero-progress failure: %v", err)
	}
	if errors.As(err, &pe) {
		t.Fatalf("zero-progress failure framed as PartialError Done=%d", pe.Done)
	}
}

// TestFileDeviceZeroProgressIsUnexpectedEOF: a transfer that stops moving
// bytes without an error means the image was truncated underneath us — it
// must surface as an error, not spin.
func TestFileDeviceZeroProgressIsUnexpectedEOF(t *testing.T) {
	const bs = 512
	d := newTestFileDevice(t, bs, 16, FileOptions{})
	d.vio = &shimVIO{steps: []shimStep{{max: 0}}}
	if err := WriteBlocks(d, 0, make([]byte, bs)); !errors.Is(err, errUnexpectedEOF) {
		t.Fatalf("zero progress: %v, want unexpected-EOF", err)
	}
}

// misalignedBuf returns an n-byte buffer guaranteed NOT page-aligned.
func misalignedBuf(n int) []byte {
	return AlignedBuf(n + 1)[1 : n+1]
}

// TestDirectStrictAlignRejects pins the strict-mode contract: direct I/O
// with a misaligned caller buffer fails with ErrBadBuffer, an aligned one
// passes. The direct/strict flags are forced on a buffered temp file so
// the contract is testable where O_DIRECT itself may be unavailable.
func TestDirectStrictAlignRejects(t *testing.T) {
	d := newTestFileDevice(t, DirectAlign, 16, FileOptions{})
	d.direct, d.strict = true, true

	if err := d.WriteBlock(0, misalignedBuf(DirectAlign)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("misaligned strict write: %v, want ErrBadBuffer", err)
	}
	if err := d.ReadBlock(0, misalignedBuf(DirectAlign)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("misaligned strict read: %v, want ErrBadBuffer", err)
	}
	if sc := d.Syscalls(); sc.PwritevCalls != 0 || sc.PreadvCalls != 0 {
		t.Fatalf("rejected transfers still issued syscalls: %+v", sc)
	}

	buf := AlignedBuf(DirectAlign)
	buf[0] = 0xAB
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatalf("aligned strict write: %v", err)
	}
	got := AlignedBuf(DirectAlign)
	if err := d.ReadBlock(0, got); err != nil {
		t.Fatalf("aligned strict read: %v", err)
	}
	if got[0] != 0xAB {
		t.Fatal("aligned roundtrip lost data")
	}
	if sc := d.Syscalls(); sc.BounceCopies != 0 {
		t.Fatalf("aligned transfers bounced: %+v", sc)
	}
}

// TestDirectBounceCopies: default (non-strict) direct mode serves
// misaligned callers through the pooled aligned bounce buffer — data
// intact, one BounceCopies tick per transfer.
func TestDirectBounceCopies(t *testing.T) {
	d := newTestFileDevice(t, DirectAlign, 16, FileOptions{})
	d.direct = true

	src := misalignedBuf(2 * DirectAlign)
	rand.New(rand.NewSource(11)).Read(src)
	if err := WriteBlocks(d, 1, src); err != nil {
		t.Fatalf("bounced write: %v", err)
	}
	dst := misalignedBuf(2 * DirectAlign)
	if err := ReadBlocks(d, 1, dst); err != nil {
		t.Fatalf("bounced read: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("bounce roundtrip corrupted the payload")
	}
	sc := d.Syscalls()
	if sc.BounceCopies != 2 {
		t.Fatalf("bounce copies %d, want 2", sc.BounceCopies)
	}
	// The bounced transfer reaches the device as ONE contiguous segment.
	if sc.PwritevCalls != 1 || sc.WriteSegs != 1 {
		t.Fatalf("bounced write syscalls %d/%d segs, want 1/1", sc.PwritevCalls, sc.WriteSegs)
	}

	// Aligned callers keep the zero-copy path even in bounce-capable mode.
	if err := WriteBlocks(d, 4, AlignedBuf(DirectAlign)); err != nil {
		t.Fatal(err)
	}
	if sc = d.Syscalls(); sc.BounceCopies != 2 {
		t.Fatalf("aligned write bounced: %d copies", sc.BounceCopies)
	}
}

// TestDirectBouncePartialReadPrefix: when a bounced read fails partway the
// PartialError's Done prefix must be real data scattered back into the
// caller's segments.
func TestDirectBouncePartialReadPrefix(t *testing.T) {
	const bs = DirectAlign
	d := newTestFileDevice(t, bs, 16, FileOptions{})
	want := make([]byte, 4*bs)
	rand.New(rand.NewSource(13)).Read(want)
	if err := WriteBlocks(d, 0, want); err != nil {
		t.Fatal(err)
	}

	d.direct = true
	d.vio = &shimVIO{steps: []shimStep{{max: 2 * bs, err: errBoom}}}
	dst := misalignedBuf(4 * bs)
	for i := range dst {
		dst[i] = 0xEE
	}
	err := ReadBlocks(d, 0, dst)
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Done != 2 {
		t.Fatalf("bounced partial read: %v, want PartialError Done=2", err)
	}
	if !bytes.Equal(dst[:2*bs], want[:2*bs]) {
		t.Fatal("completed prefix not scattered back to the caller")
	}
	for i := 2 * bs; i < 4*bs; i++ {
		if dst[i] != 0xEE {
			t.Fatalf("byte %d past the completed prefix was touched", i)
		}
	}
}

// TestOpenFileDeviceDirectRoundtrip exercises REAL O_DIRECT where the
// filesystem grants it, skipping cleanly where it doesn't (tmpfs TMPDIR,
// non-Linux builds).
func TestOpenFileDeviceDirectRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	if _, err := CreateFileDevice(path, DirectAlign, 64); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFileDeviceWith(path, DirectAlign, FileOptions{Direct: true})
	if errors.Is(err, ErrDirectUnsupported) {
		t.Skipf("direct I/O unavailable here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.Syscalls().Direct {
		t.Fatal("direct open did not mark the device direct")
	}

	src := AlignedBuf(4 * DirectAlign)
	rand.New(rand.NewSource(17)).Read(src)
	if err := WriteBlocks(d, 8, src); err != nil {
		t.Fatalf("O_DIRECT write: %v", err)
	}
	dst := AlignedBuf(4 * DirectAlign)
	if err := ReadBlocks(d, 8, dst); err != nil {
		t.Fatalf("O_DIRECT read: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("O_DIRECT roundtrip corrupted the payload")
	}
	if sc := d.Syscalls(); sc.BounceCopies != 0 {
		t.Fatalf("aligned O_DIRECT transfers bounced: %+v", sc)
	}

	// Misaligned caller against the REAL O_DIRECT fd: the bounce path must
	// keep it working.
	mis := misalignedBuf(DirectAlign)
	if err := ReadBlocks(d, 8, mis); err != nil {
		t.Fatalf("misaligned read via bounce on real O_DIRECT: %v", err)
	}
	if !bytes.Equal(mis, src[:DirectAlign]) {
		t.Fatal("bounced O_DIRECT read returned wrong bytes")
	}
}

// TestDirectRejectsUnalignedBlockSize: direct mode with a block size that
// is not a page multiple cannot honour O_DIRECT's offset contract and must
// fail up front, wrapping ErrDirectUnsupported on every platform.
func TestDirectRejectsUnalignedBlockSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	_, err := CreateFileDeviceWith(path, 512, 8, FileOptions{Direct: true})
	if !errors.Is(err, ErrDirectUnsupported) {
		t.Fatalf("direct create with 512-byte blocks: %v, want ErrDirectUnsupported", err)
	}
}
