//go:build linux

package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"sync/atomic"
	"syscall"
	"testing"
	"unsafe"
)

// TestURingLayout pins the hand-written uapi structures to the sizes the
// kernel ABI fixes.
func TestURingLayout(t *testing.T) {
	if n := unsafe.Sizeof(uringParams{}); n != 120 {
		t.Errorf("io_uring_params is %d bytes, want 120", n)
	}
	if n := unsafe.Sizeof(uringSQE{}); n != 64 {
		t.Errorf("io_uring_sqe is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(uringCQE{}); n != 16 {
		t.Errorf("io_uring_cqe is %d bytes, want 16", n)
	}
}

// TestFileDeviceRingProbe reports, once per run, whether this kernel hands
// out a ring — so a CI leg that silently fell back to serial transfers
// says so in its log (run with -v).
func TestFileDeviceRingProbe(t *testing.T) {
	d := newTestFileDevice(t, DirectAlign, 8, FileOptions{})
	r, err := openURing(d.fd)
	if err != nil {
		t.Logf("io_uring: REFUSED (%v) — FileDevice batches fall back to serial preadv/pwritev", err)
		return
	}
	t.Logf("io_uring: live (%d submission entries, %d completion entries)", len(r.sqes), len(r.cqes))
	r.close()
}

// liveRing opens a real ring on d for tests that need one, skipping where
// the kernel refuses.
func liveRing(t *testing.T, d *FileDevice) *uring {
	t.Helper()
	r, err := openURing(d.fd)
	if err != nil {
		t.Skipf("no io_uring here: %v", err)
	}
	d.rings.open = func(int) (batchIO, error) { return r, nil }
	return r
}

// TestURingReapsAcrossInterruptedWaits is the reap-before-return rule
// under the worst schedule: the first io_uring_enter submits but does not
// wait, and the waits after it are interrupted by signals several times
// over. submit must keep re-entering until every completion is in, so when
// DoBatch returns the data is there and the completion queue is empty —
// the kernel holds nothing of the caller's.
func TestURingReapsAcrossInterruptedWaits(t *testing.T) {
	const bs = DirectAlign
	d := newBatchDevice(t, bs, 256)
	r := liveRing(t, d)
	var enters, interrupts atomic.Int64
	r.enter = func(fd int, toSubmit, minComplete, flags uint32) (int, syscall.Errno) {
		enters.Add(1)
		if toSubmit > 0 {
			return uringEnter(fd, toSubmit, 0, 0) // submit, return at once
		}
		if interrupts.Add(1)%3 != 0 {
			return 0, syscall.EINTR
		}
		return uringEnter(fd, 0, minComplete, flags)
	}
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 20; round++ {
		reqs, want := batchOf(rng, bs, 32, 256)
		if err := doBatch(d, true, reqs); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		if h, tl := atomic.LoadUint32(r.cqHead), atomic.LoadUint32(r.cqTail); h != tl {
			t.Fatalf("round %d: %d completions unreaped on return", round, tl-h)
		}
		if h, tl := atomic.LoadUint32(r.sqHead), atomic.LoadUint32(r.sqTail); h != tl {
			t.Fatalf("round %d: %d submissions still queued on return", round, tl-h)
		}
		for i := range reqs {
			reqs[i].Vec = VecOne(bs, AlignedBuf(bs))
		}
		if err := doBatch(d, false, reqs); err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		for i := range reqs {
			if !bytes.Equal(reqs[i].Vec.Seg(0), want[i]) {
				t.Fatalf("round %d request %d: wrong bytes after interrupted waits", round, i)
			}
		}
	}
	if interrupts.Load() == 0 {
		t.Fatal("no wait was ever interrupted: the seam is not wired")
	}
	if sc := d.Syscalls(); sc.PwritevCalls != 20 || sc.PreadvCalls != 20 {
		t.Fatalf("wait-only enters were counted as transfer syscalls: %+v after %d enters", sc, enters.Load())
	}
}

// TestURingSubmitRefused: when io_uring_enter refuses the submission
// outright, the queued SQEs are withdrawn — the next batch must not
// resubmit them — and each op reports the errno, which for EAGAIN means
// the extent is simply re-issued through the syscall path.
func TestURingSubmitRefused(t *testing.T) {
	const bs = DirectAlign
	d := newBatchDevice(t, bs, 64)
	r := liveRing(t, d)
	refuse := syscall.Errno(0)
	r.enter = func(fd int, toSubmit, minComplete, flags uint32) (int, syscall.Errno) {
		if toSubmit > 0 && refuse != 0 {
			return 0, refuse
		}
		return uringEnter(fd, toSubmit, minComplete, flags)
	}
	rng := rand.New(rand.NewSource(9))

	refuse = syscall.EAGAIN
	reqs, want := batchOf(rng, bs, 8, 64)
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatalf("EAGAIN at submission must degrade to the syscall path: %v", err)
	}
	if sc := d.Syscalls(); sc.PwritevCalls != 8 || sc.EintrRetries != 8 {
		t.Fatalf("degraded batch: %+v", sc)
	}
	for i, got := range readBack(t, d, reqs) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d lost", i)
		}
	}

	refuse = syscall.EBADF
	reqs, _ = batchOf(rng, bs, 8, 64)
	if err := doBatch(d, true, reqs); !errors.Is(err, syscall.EBADF) || FirstFailed(reqs) != 0 {
		t.Fatalf("refused submission: %v, first failed %d", err, FirstFailed(reqs))
	}
	if h, tl := atomic.LoadUint32(r.sqHead), atomic.LoadUint32(r.sqTail); h != tl {
		t.Fatalf("%d refused SQEs left queued", tl-h)
	}

	refuse = 0
	reqs, want = batchOf(rng, bs, 8, 64)
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatalf("ring unusable after a refused submission: %v", err)
	}
	for i, got := range readBack(t, d, reqs) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d lost after recovery", i)
		}
	}
}

// TestFileDeviceBatchCompletionEINTR: -EINTR and -EAGAIN completions are
// not failures; the extent is re-issued through the transfer loop.
func TestFileDeviceBatchCompletionEINTR(t *testing.T) {
	const bs = 512
	d := newBatchDevice(t, bs, 64)
	scriptRing(d, 8, map[int]shimStep{1: {err: syscall.EINTR}, 6: {err: syscall.EAGAIN}})
	reqs, want := batchOf(rand.New(rand.NewSource(10)), bs, 8, 64)
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatalf("batch across interrupted completions: %v", err)
	}
	for i, got := range readBack(t, d, reqs) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d lost", i)
		}
	}
	if sc := d.Syscalls(); sc.EintrRetries != 2 || sc.PwritevCalls != 3 {
		t.Fatalf("syscall accounting: %+v", sc)
	}
}

// TestURingIovMaxCapping: an extent wider than IOV_MAX goes into its SQE
// capped and comes back short; the remainder rides the transfer loop.
func TestURingIovMaxCapping(t *testing.T) {
	const (
		bs   = DirectAlign
		segs = iovMax + 40
	)
	d := newBatchDevice(t, bs, 2*segs)
	liveRing(t, d)
	rng := rand.New(rand.NewSource(11))
	want := AlignedBuf(segs * bs)
	rng.Read(want)
	var wideSegs [][]byte
	for i := 0; i < segs; i++ {
		wideSegs = append(wideSegs, want[i*bs:(i+1)*bs])
	}
	wide := Vec(bs, wideSegs...)
	small := AlignedBuf(bs)
	rng.Read(small)
	reqs := []Req{{Start: 0, Vec: wide}, {Start: segs + 3, Vec: VecOne(bs, small)}}
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatal(err)
	}
	if sc := d.Syscalls(); sc.ShortTransfers != 1 || sc.PwritevCalls != 2 || sc.BatchCalls != 1 {
		t.Fatalf("capped extent: %+v", sc)
	}
	got := AlignedBuf(segs * bs)
	if err := ReadBlocks(d, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("IOV_MAX-capped extent corrupted")
	}
}
