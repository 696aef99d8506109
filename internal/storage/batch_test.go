package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// errNoRing stands in for the kernel refusing io_uring_setup.
var errNoRing = errors.New("test: ring refused")

// newBatchDevice creates a buffered temp image with the direct flag forced
// on, so the device batches wherever the tests run — tmpfs included, where
// a real O_DIRECT open is refused (the TestDirectStrictAlignRejects trick).
// Aligned buffers go to the ring; misaligned ones bounce, as in real direct
// mode.
func newBatchDevice(t *testing.T, blockSize int, numBlocks uint64) *FileDevice {
	t.Helper()
	d := newTestFileDevice(t, blockSize, numBlocks, FileOptions{})
	d.direct = true
	return d
}

// refuseRing turns d's submission ring off, the way a kernel without
// io_uring does: every batch takes the serial loop.
func refuseRing(d *FileDevice) {
	d.rings.open = func(int) (batchIO, error) { return nil, errNoRing }
}

// scriptBatchIO is the batchIO twin of shimVIO: every op moves through the
// real file unless the script, keyed by the op's ordinal over the backend's
// life, caps it (a short count) or fails it (a negative completion). Ops of
// one submission complete independently, as on a ring — a failed one does
// not stop the ones after it.
type scriptBatchIO struct {
	f       *os.File
	cap     int
	script  map[int]shimStep
	seen    int
	submits int
	closed  bool
}

func (s *scriptBatchIO) entries() int { return s.cap }
func (s *scriptBatchIO) close()       { s.closed = true }

func (s *scriptBatchIO) submit(write bool, ops []batchOp) int {
	s.submits++
	for i := range ops {
		st, scripted := s.script[s.seen]
		s.seen++
		if !scripted {
			st.max = -1
		}
		if st.err != nil {
			ops[i].n, ops[i].err = 0, st.err
			continue
		}
		done := 0
		_ = ops[i].vec.Range(func(_ int, seg []byte) error {
			if st.max >= 0 && done+len(seg) > st.max {
				seg = seg[:st.max-done]
			}
			var n int
			if write {
				n, _ = s.f.WriteAt(seg, ops[i].off+int64(done))
			} else {
				n, _ = s.f.ReadAt(seg, ops[i].off+int64(done))
			}
			done += n
			return nil
		})
		ops[i].n, ops[i].err = done, nil
	}
	return 1
}

// scriptRing installs a scripted backend of the given capacity on d and
// returns it.
func scriptRing(d *FileDevice, capacity int, script map[int]shimStep) *scriptBatchIO {
	s := &scriptBatchIO{f: d.f, cap: capacity, script: script}
	d.rings.open = func(int) (batchIO, error) { return s, nil }
	return s
}

// doBatch stamps reqs as reads or writes and runs them on dev.
func doBatch(dev Device, write bool, reqs []Req) error {
	op := OpRead
	if write {
		op = OpWrite
	}
	for i := range reqs {
		reqs[i].Op = op
	}
	return Do(dev, reqs)
}

// batchOf builds n single-block write requests at scattered, disjoint
// offsets with seeded payloads, and returns the payloads by request.
func batchOf(rng *rand.Rand, bs, n int, numBlocks uint64) ([]Req, [][]byte) {
	reqs := make([]Req, n)
	want := make([][]byte, n)
	for i, blk := range rng.Perm(int(numBlocks))[:n] {
		want[i] = AlignedBuf(bs)
		rng.Read(want[i])
		reqs[i] = Req{Start: uint64(blk), Vec: VecOne(bs, want[i]), FID: uint64(i + 1)}
	}
	return reqs, want
}

// readBack reads every request's block range into fresh buffers.
func readBack(t *testing.T, d Device, reqs []Req) [][]byte {
	t.Helper()
	got := make([][]byte, len(reqs))
	for i, r := range reqs {
		got[i] = AlignedBuf(r.Vec.Bytes())
		if err := ReadBlocks(d, r.Start, got[i]); err != nil {
			t.Fatalf("read-back of request %d: %v", i, err)
		}
	}
	return got
}

// TestDoBatchSerialPrefix pins the helper's fallback on a device with no
// batch support: requests run in order through the vec calls, the first
// failure stops the loop, and the outcome is prefix-shaped by
// construction — the failed request carries its completed prefix, the ones
// after it were never attempted.
func TestDoBatchSerialPrefix(t *testing.T) {
	const bs = 512
	fd := NewFlakyDevice(NewMemDevice(bs, 64), FlakyOptions{})
	rng := rand.New(rand.NewSource(5))
	reqs := make([]Req, 4)
	for i := range reqs {
		buf := make([]byte, 2*bs)
		rng.Read(buf)
		reqs[i] = Req{Start: uint64(10 * i), Vec: VecOne(bs, buf)}
	}
	fd.FailAfter(OpWrite, 5, nil) // requests 0 and 1 land, request 2 lands one block
	err := doBatch(fd, true, reqs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("DoBatch = %v, want the injected fault", err)
	}
	if got := FirstFailed(reqs); got != 2 {
		t.Fatalf("FirstFailed = %d, want 2", got)
	}
	for i, want := range []int{2, 2, 1, 0} {
		if reqs[i].Done != want {
			t.Fatalf("request %d Done = %d, want %d", i, reqs[i].Done, want)
		}
	}
	if reqs[2].Err == nil || reqs[3].Err != nil {
		t.Fatalf("errors misplaced: req 2 %v, req 3 %v", reqs[2].Err, reqs[3].Err)
	}
	if reqs[2].Vec.Len() != 2 {
		t.Fatalf("the device kept the request cut to its completed prefix: %d blocks", reqs[2].Vec.Len())
	}
	fd.Disarm()
	if FirstFailed(reqs[:2]) != 2 {
		t.Fatal("FirstFailed on a clean prefix must return its length")
	}
	// A reused list must not carry the old outcome over.
	if err := doBatch(fd, true, reqs); err != nil || FirstFailed(reqs) != len(reqs) || reqs[3].Done != 2 {
		t.Fatalf("second run: %v, outcomes %+v", err, reqs)
	}
}

// TestFileDeviceBatchEquivalence drives seeded random batches — 0 to 200
// requests, multi-segment vecs, more requests than the ring has entries —
// through a device with its ring and a twin with the ring refused, each
// under the SliceDevice + StatsDevice wraps the system puts around it, on a
// buffered descriptor (tmpfs in CI) and a real O_DIRECT one. The two must
// hold identical bytes and identical accounting: whether a request
// travelled in a batch is invisible above the device.
func TestFileDeviceBatchEquivalence(t *testing.T) {
	for _, direct := range []bool{false, true} {
		t.Run(fmt.Sprintf("direct=%v", direct), func(t *testing.T) {
			const (
				bs     = DirectAlign
				blocks = 1024
				off    = 16 // slice offset into the image
				rounds = 60
			)
			open := func(name string) (*FileDevice, *StatsDevice) {
				path := filepath.Join(t.TempDir(), name)
				d, err := CreateFileDeviceWith(path, bs, blocks+off, FileOptions{Direct: direct})
				if errors.Is(err, ErrDirectUnsupported) {
					t.Skipf("direct I/O unavailable here: %v", err)
				}
				if err != nil {
					t.Fatal(err)
				}
				// The buffered leg forces the flag so the ring serves a
				// buffered descriptor too: production never does (see
				// FileDevice.DoBatch), but it is the one way to drive the
				// real ring on tmpfs, and the kernel's buffered path —
				// worker-thread completions — is the harder reap to get
				// right.
				d.direct = true
				t.Cleanup(func() { _ = d.Close() })
				sl, err := NewSliceDevice(d, off, blocks)
				if err != nil {
					t.Fatal(err)
				}
				return d, NewStatsDevice(sl)
			}
			ringDev, ring := open("ring.img")
			serialDev, serial := open("serial.img")
			refuseRing(serialDev)

			rng := rand.New(rand.NewSource(20180625))
			for round := 0; round < rounds; round++ {
				var n int
				switch round {
				case 0:
					n = 0
				case 1:
					n = 1
				case 2:
					n = 200 // more than three rings' worth
				default:
					n = rng.Intn(100)
				}
				write := round%3 != 2
				// Disjoint extents of 1–4 blocks at shuffled positions.
				slots := rng.Perm(blocks / 4)[:n]
				mk := func() []Req {
					reqs := make([]Req, n)
					for i, s := range slots {
						reqs[i] = Req{Start: uint64(4 * s), FID: uint64(i)}
					}
					return reqs
				}
				a, b := mk(), mk()
				for i := range a {
					var v, w [][]byte
					for left := rng.Intn(4) + 1; left > 0; {
						k := rng.Intn(left) + 1
						seg := AlignedBuf(k * bs)
						rng.Read(seg)
						v, w = append(v, seg), append(w, append(AlignedBuf(k * bs)[:0], seg...))
						left -= k
					}
					a[i].Vec, b[i].Vec = Vec(bs, v...), Vec(bs, w...)
				}
				errA, errB := doBatch(ring, write, a), doBatch(serial, write, b)
				if errA != nil || errB != nil {
					t.Fatalf("round %d: ring %v, serial %v", round, errA, errB)
				}
				for i := range a {
					if a[i].Done != a[i].Vec.Len() || b[i].Done != a[i].Done {
						t.Fatalf("round %d request %d: Done ring %d serial %d of %d",
							round, i, a[i].Done, b[i].Done, a[i].Vec.Len())
					}
					if !write && !bytes.Equal(flatten(a[i].Vec), flatten(b[i].Vec)) {
						t.Fatalf("round %d request %d: ring and serial reads differ", round, i)
					}
				}
			}
			imgA, imgB := AlignedBuf((blocks+off)*bs), AlignedBuf((blocks+off)*bs)
			if err := ReadBlocks(ringDev, 0, imgA); err != nil {
				t.Fatal(err)
			}
			if err := ReadBlocks(serialDev, 0, imgB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(imgA, imgB) {
				t.Fatal("ring and serial images differ")
			}
			sa, sb := ring.Metrics().Snapshot(), serial.Metrics().Snapshot()
			if sa.ReadBlocks != sb.ReadBlocks || sa.WriteBlocks != sb.WriteBlocks ||
				sa.BytesRead != sb.BytesRead || sa.BytesWrite != sb.BytesWrite ||
				sa.ReadLat.Count != sb.ReadLat.Count || sa.WriteLat.Count != sb.WriteLat.Count {
				t.Fatalf("accounting differs:\n ring   %+v\n serial %+v", sa, sb)
			}
			if sa.WriteBlocks == 0 || sa.ReadBlocks == 0 {
				t.Fatal("workload moved nothing")
			}
			sc := serialDev.Syscalls()
			if sc.Ring || sc.BatchCalls != 0 {
				t.Fatalf("refused ring still served batches: %+v", sc)
			}
			// Every buffer came from AlignedBuf: nothing may bounce.
			if rc := ringDev.Syscalls(); rc.BounceCopies != 0 || sc.BounceCopies != 0 {
				t.Fatalf("aligned buffers bounced: ring %d, serial %d copies", rc.BounceCopies, sc.BounceCopies)
			}
			if rc := ringDev.Syscalls(); rc.Ring {
				// One submission per ring's worth: far fewer syscalls than
				// requests, and the same segments.
				if rc.BatchCalls == 0 || rc.BatchReqs < rc.BatchCalls ||
					rc.PwritevCalls >= sc.PwritevCalls || rc.WriteSegs != sc.WriteSegs {
					t.Fatalf("ring accounting implausible:\n ring   %+v\n serial %+v", rc, sc)
				}
			} else if runtime.GOOS == "linux" {
				t.Log("io_uring_setup refused here: both sides ran serially")
			}
		})
	}
}

// TestFileDeviceBatchShortCount: a completion that moved only part of its
// extent is finished through the ordinary transfer loop from where it
// stopped — mid-block included — and the caller sees success.
func TestFileDeviceBatchShortCount(t *testing.T) {
	const bs = 512
	d := newBatchDevice(t, bs, 64)
	scriptRing(d, 8, map[int]shimStep{2: {max: bs/2 + 7}, 5: {max: 0}})
	reqs, want := batchOf(rand.New(rand.NewSource(3)), bs, 8, 64)
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatalf("batch across short counts: %v", err)
	}
	for i, got := range readBack(t, d, reqs) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d corrupted by the short-count resume", i)
		}
		if reqs[i].Done != 1 || reqs[i].Err != nil {
			t.Fatalf("request %d outcome %d / %v", i, reqs[i].Done, reqs[i].Err)
		}
	}
	sc := d.Syscalls()
	// One submission, plus one pwritev for each of the two resumed extents.
	if sc.ShortTransfers != 2 || sc.PwritevCalls != 3 || sc.BatchCalls != 1 || sc.BatchReqs != 8 {
		t.Fatalf("syscall accounting: %+v", sc)
	}
}

// TestFileDeviceBatchHardError: a negative completion mid-batch is that
// request's error and nobody else's. The batch reports it, FirstFailed
// finds it, the requests around it — later ones included — say they
// landed, and the accounting wrap counts exactly the ones that did.
func TestFileDeviceBatchHardError(t *testing.T) {
	const bs = 512
	boom := errors.New("test: EIO")
	d := newBatchDevice(t, bs, 64)
	scriptRing(d, 8, map[int]shimStep{4: {err: boom}})
	rec := NewStatsDevice(d)
	reqs, want := batchOf(rand.New(rand.NewSource(4)), bs, 8, 64)
	err := doBatch(rec, true, reqs)
	if !errors.Is(err, boom) {
		t.Fatalf("DoBatch = %v, want the injected completion error", err)
	}
	if FirstFailed(reqs) != 4 || !errors.Is(reqs[4].Err, boom) || reqs[4].Done != 0 {
		t.Fatalf("failed request misreported: first %d, %+v", FirstFailed(reqs), reqs[4])
	}
	got := readBack(t, d, reqs)
	for i := range reqs {
		if i == 4 {
			if bytes.Equal(got[i], want[i]) {
				t.Fatal("failed request's data landed")
			}
			continue
		}
		if reqs[i].Done != 1 || reqs[i].Err != nil || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("request %d should have landed: %+v", i, reqs[i])
		}
	}
	if m := rec.Metrics().Snapshot(); m.WriteBlocks != 7 || m.WriteLat.Count != 7 {
		t.Fatalf("stats counted %d blocks / %d observations, want 7 / 7", m.WriteBlocks, m.WriteLat.Count)
	}
}

// TestFileDeviceBatchChunks: a batch larger than the ring goes down a
// ring's worth at a time, and a failure ends it at the end of its own
// submission — requests of later submissions are not attempted.
func TestFileDeviceBatchChunks(t *testing.T) {
	const bs = 512
	boom := errors.New("test: EIO")
	d := newBatchDevice(t, bs, 64)
	ring := scriptRing(d, 4, nil)
	reqs, want := batchOf(rand.New(rand.NewSource(6)), bs, 10, 64)
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatal(err)
	}
	if sc := d.Syscalls(); ring.submits != 3 || sc.PwritevCalls != 3 || sc.WriteSegs != 10 || sc.BatchCalls != 1 {
		t.Fatalf("10 requests on a 4-entry ring: %d submissions, %+v", ring.submits, sc)
	}
	for i, got := range readBack(t, d, reqs) {
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d lost in chunking", i)
		}
	}

	ring.script = map[int]shimStep{ring.seen + 5: {err: boom}} // second submission
	if err := doBatch(d, true, reqs); !errors.Is(err, boom) {
		t.Fatalf("DoBatch = %v, want the injected error", err)
	}
	if ring.submits != 5 {
		t.Fatalf("%d submissions in all, want 5: the third chunk must not go down", ring.submits)
	}
	for i, r := range reqs {
		switch {
		case i == 5 && (r.Err == nil || r.Done != 0),
			i != 5 && i < 8 && (r.Err != nil || r.Done != 1),
			i >= 8 && (r.Err != nil || r.Done != 0):
			t.Fatalf("request %d outcome %d / %v", i, r.Done, r.Err)
		}
	}
}

// TestFileDeviceBatchRingRefused: a kernel that refuses the ring is asked
// once; from then on the device declines every batch, the helper's serial
// loop moves the same bytes, and telemetry says so.
func TestFileDeviceBatchRingRefused(t *testing.T) {
	const bs = 512
	d := newBatchDevice(t, bs, 64)
	asked := 0
	d.rings.open = func(int) (batchIO, error) { asked++; return nil, errNoRing }
	for round := 0; round < 3; round++ {
		reqs, want := batchOf(rand.New(rand.NewSource(int64(round))), bs, 8, 64)
		if err := doBatch(d, true, reqs); err != nil {
			t.Fatal(err)
		}
		for i, got := range readBack(t, d, reqs) {
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d request %d: serial fallback lost data", round, i)
			}
		}
	}
	if sc := d.Syscalls(); asked != 1 || sc.Ring || sc.BatchCalls != 0 || sc.PwritevCalls != 24 {
		t.Fatalf("asked %d times, %+v", asked, sc)
	}
}

// TestFileDeviceBatchDeclines: batches the ring cannot take as they are go
// to the serial path, which produces the error or the bounce copy it always
// did — with the requests before the offending one executed.
func TestFileDeviceBatchDeclines(t *testing.T) {
	const bs = DirectAlign
	d := newBatchDevice(t, bs, 16)
	ring := scriptRing(d, 8, nil)
	buf := func() BlockVec { return VecOne(bs, AlignedBuf(bs)) }

	// Out of range at request 1: request 0 lands, then the range error.
	reqs := []Req{{Start: 3, Vec: buf()}, {Start: 16, Vec: buf()}, {Start: 5, Vec: buf()}}
	if err := doBatch(d, true, reqs); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range batch: %v", err)
	}
	if reqs[0].Done != 1 || FirstFailed(reqs) != 1 || reqs[2].Done != 0 {
		t.Fatalf("prefix not executed: %+v", reqs)
	}

	// A misaligned buffer: bounced by the serial path.
	reqs = []Req{{Start: 1, Vec: buf()}, {Start: 2, Vec: VecOne(bs, misalignedBuf(bs))}}
	if err := doBatch(d, true, reqs); err != nil {
		t.Fatalf("misaligned batch: %v", err)
	}
	if sc := d.Syscalls(); sc.BounceCopies != 1 || sc.BatchCalls != 0 || ring.submits != 0 {
		t.Fatalf("declined batches reached the ring: %d submissions, %+v", ring.submits, sc)
	}

	// A buffered device never batches: nothing to overlap, and buffered
	// writes through a ring go to kernel workers one by one.
	d.direct = false
	reqs = []Req{{Start: 1, Vec: buf()}, {Start: 2, Vec: buf()}}
	if err := doBatch(d, true, reqs); err != nil || ring.submits != 0 {
		t.Fatalf("buffered batch: %v after %d ring submissions", err, ring.submits)
	}
	d.direct = true

	// A slice over the device declines what lies outside the slice.
	sl, err := NewSliceDevice(d, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	reqs = []Req{{Start: 0, Vec: buf()}, {Start: 8, Vec: buf()}}
	if err := doBatch(sl, true, reqs); !errors.Is(err, ErrOutOfRange) || reqs[0].Done != 1 {
		t.Fatalf("slice overrun: %v, %+v", err, reqs)
	}
	// ...and offsets what lies inside, restoring the caller's view.
	reqs = []Req{{Start: 0, Vec: buf()}, {Start: 7, Vec: buf()}}
	reqs[1].Vec.Seg(0)[0] = 0x5A
	if err := doBatch(sl, true, reqs); err != nil || ring.submits != 1 {
		t.Fatalf("in-slice batch: %v after %d submissions", err, ring.submits)
	}
	if reqs[0].Start != 0 || reqs[1].Start != 7 {
		t.Fatalf("slice left its offset in the requests: %+v", reqs)
	}
	got := AlignedBuf(bs)
	if err := d.ReadBlock(15, got); err != nil || got[0] != 0x5A {
		t.Fatalf("slice offset not applied: %v, byte %#x", err, got[0])
	}
}

// TestFileDeviceBatchCloseRace: eight goroutines batch through one device
// while another closes it. Every batch either completes or reports
// ErrClosed; Close waits for the batches in flight, so no ring is unmapped
// under a submission. Run under -race at GOMAXPROCS 1 and 4.
func TestFileDeviceBatchCloseRace(t *testing.T) {
	const (
		bs      = DirectAlign
		blocks  = 512
		workers = 8
	)
	for round := 0; round < 4; round++ {
		d := newBatchDevice(t, bs, blocks)
		var wg sync.WaitGroup
		var batches atomic.Int64
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				per := blocks / workers
				reqs := make([]Req, 8)
				for i := range reqs {
					reqs[i].Vec = VecOne(bs, AlignedBuf(bs))
				}
				<-start
				for {
					for i, blk := range rng.Perm(per)[:len(reqs)] {
						reqs[i].Start = uint64(w*per + blk)
					}
					err := doBatch(d, rng.Intn(2) == 0, reqs)
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					batches.Add(1)
				}
			}(w)
		}
		close(start)
		for batches.Load() < 50 {
			runtime.Gosched()
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		d.rings.mu.Lock()
		idle := len(d.rings.free)
		d.rings.mu.Unlock()
		if idle != 0 {
			t.Fatalf("%d rings survived Close", idle)
		}
	}
}
