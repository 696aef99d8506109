package ioq

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/storage"
)

// The hand-out suite: a queue's only in-flight parallelism is the worker
// pool — one coalesced run per dispatch, as many dispatches at once as
// there are workers. These tests pin what that buys (disjoint runs overlap
// at the device), what it must not cost (barriers, deadlines, final image,
// fairness across volumes) and the crash view of a Flush behind it.

// devWrite is one write operation as the device saw it.
type devWrite struct{ start, blocks uint64 }

// holdDevice gates writes by their start block: a write whose start has a
// registered gate announces itself on entered and parks until the gate
// opens. It makes "which runs are at the device right now" observable from
// the outside, and records every write operation and sync it serves.
type holdDevice struct {
	storage.Device
	mu       sync.Mutex
	gates    map[uint64]chan struct{}
	releases []func()
	writes   []devWrite
	entered  chan uint64
	syncs    atomic.Int64
}

func newHoldDevice(inner storage.Device) *holdDevice {
	return &holdDevice{
		Device:  inner,
		gates:   make(map[uint64]chan struct{}),
		entered: make(chan uint64, 16),
	}
}

// hold gates the next write at start; the returned release is idempotent.
func (d *holdDevice) hold(start uint64) func() {
	g := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(g) }) }
	d.mu.Lock()
	d.gates[start] = g
	d.releases = append(d.releases, rel)
	d.mu.Unlock()
	return rel
}

// releaseAll opens every gate ever issued, so a failing test never leaves
// the scheduler's Close waiting on a parked write.
func (d *holdDevice) releaseAll() {
	d.mu.Lock()
	rels := d.releases
	d.mu.Unlock()
	for _, r := range rels {
		r()
	}
}

func (d *holdDevice) Do(reqs []storage.Req) error {
	switch r := &reqs[0]; r.Op {
	case storage.OpSync:
		d.syncs.Add(1)
	case storage.OpWrite:
		d.mu.Lock()
		d.writes = append(d.writes, devWrite{r.Start, uint64(r.Blocks())})
		g := d.gates[r.Start]
		delete(d.gates, r.Start)
		d.mu.Unlock()
		if g != nil {
			d.entered <- r.Start
			<-g
		}
	}
	return storage.Do(d.Device, reqs)
}

// writesBelow returns the recorded write operations that start below
// limit, in arrival order (the plugs sit above it).
func (d *holdDevice) writesBelow(limit uint64) []devWrite {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []devWrite
	for _, w := range d.writes {
		if w.start < limit {
			out = append(out, w)
		}
	}
	return out
}

// waitEntered fails the test unless a gated write reaches the device
// within the deadline.
func waitEntered(t *testing.T, d *holdDevice) uint64 {
	t.Helper()
	select {
	case s := <-d.entered:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("no write reached the device in time")
		return 0
	}
}

// assertNotEntered fails if any gated write reaches the device within the
// grace period.
func assertNotEntered(t *testing.T, d *holdDevice) {
	t.Helper()
	select {
	case s := <-d.entered:
		t.Fatalf("write at %d reached the device while it had to wait", s)
	case <-time.After(50 * time.Millisecond):
	}
}

const plugBase = 1000 // plug writes start here, two blocks apart

// plug parks every one of the scheduler's workers inside the device on a
// write of q's, so that everything submitted to q meanwhile piles up and is
// drained as ONE batch once the returned function opens the plugs.
func plug(t *testing.T, q *VolumeQueue, dev *holdDevice, workers int) (unplug func()) {
	t.Helper()
	rels := make([]func(), workers)
	for i := range rels {
		at := uint64(plugBase + 2*i)
		rels[i] = dev.hold(at)
		q.SubmitWrite(at, make([]byte, blockSize))
		if got := waitEntered(t, dev); got != at {
			t.Fatalf("plug write entered as %d, want %d", got, at)
		}
	}
	return func() {
		for _, r := range rels {
			r()
		}
	}
}

// plugged builds a one-queue scheduler with the given worker count over a
// held device (wrapping inner, or a fresh MemDevice) with every worker
// plugged.
func plugged(t *testing.T, workers int, inner storage.Device) (*Scheduler, *VolumeQueue, *holdDevice, func()) {
	t.Helper()
	if inner == nil {
		inner = storage.NewMemDevice(blockSize, 2048)
	}
	dev := newHoldDevice(inner)
	s := NewScheduler(Options{Workers: workers})
	t.Cleanup(func() {
		dev.releaseAll()
		s.Close()
	})
	q := s.Register(dev)
	return s, q, dev, plug(t, q, dev, workers)
}

// holdWrites gates and submits one single-block write per start, returning
// the gates' release functions by start and the writes' futures.
func holdWrites(q *VolumeQueue, dev *holdDevice, starts []uint64) (map[uint64]func(), []*Future) {
	rel := map[uint64]func(){}
	var futs []*Future
	for _, st := range starts {
		rel[st] = dev.hold(st)
		futs = append(futs, q.SubmitWrite(st, make([]byte, blockSize)))
	}
	return rel, futs
}

// TestHandOutDisjointRunsRunConcurrently is the parallelism proof: the
// disjoint runs of one batch are at the device together, as many as there
// are workers and no more, and a finished worker takes the next staged run.
func TestHandOutDisjointRunsRunConcurrently(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, q, dev, unplug := plugged(t, workers, nil)
			starts := []uint64{10, 20, 30}
			rel, futs := holdWrites(q, dev, starts)
			unplug()

			// Elevator order: the first `workers` runs enter together, the
			// rest stay staged — nobody but a worker executes a run.
			at := map[uint64]bool{}
			for i := 0; i < workers; i++ {
				at[waitEntered(t, dev)] = true
			}
			for _, st := range starts[:workers] {
				if !at[st] {
					t.Fatalf("at the device: %v, want the first %d of %v", at, workers, starts)
				}
			}
			assertNotEntered(t, dev)

			// Each completion frees its worker for the next staged run.
			for i, st := range starts {
				rel[st]()
				if next := i + workers; next < len(starts) {
					if got := waitEntered(t, dev); got != starts[next] {
						t.Fatalf("after %d completed, entered %d, want %d", st, got, starts[next])
					}
				}
			}
			if err := WaitAll(futs...); err != nil {
				t.Fatal(err)
			}
			m := s.MetricsSnapshot()
			if m.InFlight != 0 || m.QueueDepth != 0 {
				t.Fatalf("gauges did not unwind: in flight %d, depth %d", m.InFlight, m.QueueDepth)
			}
			// One drain for the three writes, however many hand-outs it
			// took (the plugs before it were one drain each).
			if want := uint64(workers + 1); m.Batches != want {
				t.Fatalf("Batches = %d, want %d", m.Batches, want)
			}
		})
	}
}

// TestHandOutBarrierWaitsForStagedAndInFlight: a Flush behind a staged
// batch must not reach the device's Sync while any handed-out run is
// parked at the device, nor while a run of the batch is still staged with
// nothing in flight (workers=1: every completion leaves exactly that
// state).
func TestHandOutBarrierWaitsForStagedAndInFlight(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, q, dev, unplug := plugged(t, workers, nil)
			starts := []uint64{10, 20, 30}
			rel, futs := holdWrites(q, dev, starts)
			flush := q.Flush()
			unplug()

			flushDone := make(chan error, 1)
			go func() { flushDone <- flush.Wait() }()
			notYet := func(when string) {
				t.Helper()
				select {
				case err := <-flushDone:
					t.Fatalf("flush completed (%v) %s", err, when)
				case <-time.After(50 * time.Millisecond):
				}
				if n := dev.syncs.Load(); n != 0 {
					t.Fatalf("device saw %d syncs %s", n, when)
				}
			}

			for i := 0; i < workers; i++ {
				waitEntered(t, dev)
			}
			notYet("with every worker's run parked at the device")
			for i, st := range starts {
				rel[st]()
				if next := i + workers; next < len(starts) {
					waitEntered(t, dev)
				}
				if i < len(starts)-1 {
					notYet(fmt.Sprintf("with the write at %d done and later ones outstanding", st))
				}
			}
			if err := <-flushDone; err != nil {
				t.Fatalf("flush after drain: %v", err)
			}
			if n := dev.syncs.Load(); n != 1 {
				t.Fatalf("device saw %d syncs, want 1", n)
			}
			if err := WaitAll(futs...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandOutMatchesSerialReference drives 640 writes in waves of disjoint
// regions, with interleaved flushes and read-backs, through Workers: 4 and
// through Workers: 1, and requires both final images to equal a serially
// updated reference device — the worker count changes scheduling, never
// semantics.
func TestHandOutMatchesSerialReference(t *testing.T) {
	const (
		regions    = 16
		regionSize = 8
		blocks     = regions * regionSize
		rounds     = 40
	)
	run := func(workers int) (got, want []byte) {
		rng := rand.New(rand.NewSource(31415))
		mem := storage.NewMemDevice(blockSize, blocks)
		ref := storage.NewMemDevice(blockSize, blocks)
		s := NewScheduler(Options{Workers: workers})
		defer s.Close()
		q := s.Register(mem)
		for round := 0; round < rounds; round++ {
			var futs []*Future
			for _, r := range rng.Perm(regions) {
				start := uint64(r * regionSize)
				buf := make([]byte, (rng.Intn(regionSize)+1)*blockSize)
				rng.Read(buf)
				futs = append(futs, q.SubmitWrite(start, buf))
				if err := storage.WriteBlocks(ref, start, buf); err != nil {
					t.Fatal(err)
				}
			}
			if round%5 == 4 {
				futs = append(futs, q.Flush())
			}
			if err := WaitAll(futs...); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			// Spot-check a random region read through the queue.
			r := uint64(rng.Intn(regions) * regionSize)
			got := make([]byte, regionSize*blockSize)
			if err := q.SubmitRead(r, got).Wait(); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, regionSize*blockSize)
			if err := storage.ReadBlocks(ref, r, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d round %d: region at %d diverged", workers, round, r)
			}
		}
		got, err := storage.ReadFull(mem, 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		want, err = storage.ReadFull(ref, 0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	got4, want := run(4)
	got1, _ := run(1)
	if !bytes.Equal(got4, want) {
		t.Fatal("Workers: 4 image diverges from the serial reference")
	}
	if !bytes.Equal(got1, got4) {
		t.Fatal("Workers: 1 and Workers: 4 images differ")
	}
}

// TestHandOutExpiredMiddleSplitsRun: three adjacent writes would merge into
// one device operation; when the middle one's deadline passes while they
// queue, it completes with ErrDeadline and the survivors execute as two
// operations — never one merged across the hole, which would write the
// expired request's block with somebody else's bytes.
func TestHandOutExpiredMiddleSplitsRun(t *testing.T) {
	s, q, dev, unplug := plugged(t, 1, nil)
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, blockSize) }
	left := q.SubmitWrite(10, payload(0xA1))
	doomed := q.SubmitWriteOpts(11, payload(0xEE), ReqOptions{Deadline: time.Now().Add(time.Millisecond)})
	right := q.SubmitWrite(12, payload(0xC3))
	time.Sleep(5 * time.Millisecond)
	unplug()

	if err := doomed.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("middle write err = %v, want ErrDeadline", err)
	}
	if err := WaitAll(left, right); err != nil {
		t.Fatalf("survivors: %v", err)
	}
	want := []devWrite{{10, 1}, {12, 1}}
	if got := dev.writesBelow(plugBase); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("device writes %v, want %v", got, want)
	}
	got := make([]byte, 3*blockSize)
	if err := q.SubmitRead(10, got).Wait(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xA1 || got[blockSize] != 0 || got[2*blockSize] != 0xC3 {
		t.Fatalf("blocks 10..12 start %#x %#x %#x, want a1 00 c3", got[0], got[blockSize], got[2*blockSize])
	}
	if m := s.MetricsSnapshot(); m.Timeouts != 1 || m.CoalescedOps != 0 || m.InFlight != 0 || m.QueueDepth != 0 {
		t.Fatalf("accounting after the expiry: %+v", m)
	}
}

// resubmitDevice keeps its queue saturated from the inside: every device
// operation submits the queue's next request before it returns, so each
// dispatch ends with work left. At operation number probeAt it also
// submits one request to another queue.
type resubmitDevice struct {
	storage.Device
	q, other *VolumeQueue
	buf      []byte
	ops      atomic.Int64
	stop     atomic.Bool
	probe    chan *Future
}

const (
	probeAt     = 50
	resubmitCap = 5000 // a starving scheduler fails by count, not by hanging
)

func (d *resubmitDevice) Do(reqs []storage.Req) error {
	n := d.ops.Add(1)
	if n == probeAt {
		d.probe <- d.other.SubmitWrite(0, d.buf)
	}
	if n < resubmitCap && !d.stop.Load() {
		d.q.SubmitWrite(uint64(2*n%512), d.buf)
	}
	return storage.Do(d.Device, reqs)
}

// opStampDevice records the saturating device's operation count at the
// moment its own first request is served.
type opStampDevice struct {
	storage.Device
	busy     *resubmitDevice
	servedAt atomic.Int64
}

func (d *opStampDevice) Do(reqs []storage.Req) error {
	d.servedAt.CompareAndSwap(0, d.busy.ops.Load())
	return storage.Do(d.Device, reqs)
}

// TestHandOutRoundRobinAcrossQueues: with ONE worker and one queue that
// has work left at the end of every dispatch, a request submitted to a
// second queue is served within a bounded number of the first queue's
// dispatches — a worker re-queues a busy queue at the tail of the ready
// list, behind everybody who is waiting.
func TestHandOutRoundRobinAcrossQueues(t *testing.T) {
	s := NewScheduler(Options{Workers: 1})
	defer s.Close()
	busy := &resubmitDevice{
		Device: storage.NewMemDevice(blockSize, 1024),
		buf:    make([]byte, blockSize),
		probe:  make(chan *Future, 1),
	}
	defer busy.stop.Store(true)
	stamp := &opStampDevice{Device: storage.NewMemDevice(blockSize, 8), busy: busy}
	busy.q, busy.other = s.Register(busy), s.Register(stamp)

	busy.q.SubmitWrite(0, busy.buf)
	var probe *Future
	select {
	case probe = <-busy.probe:
	case <-time.After(5 * time.Second):
		t.Fatal("the saturated queue never reached the probe operation")
	}
	if err := probe.Wait(); err != nil {
		t.Fatal(err)
	}
	// Submitted during operation probeAt; that dispatch re-queues the busy
	// queue behind it, so it is the very next thing the worker serves.
	if waited := stamp.servedAt.Load() - probeAt; waited > 2 {
		t.Fatalf("second queue waited %d dispatches of the saturated one, want <= 2", waited)
	}
}

// TestHandOutCrashImagesHoldFlushedWrites is the crash view of the barrier
// under concurrent hand-out (ROADMAP verification item (c), in small): K
// disjoint writes drained as one batch and handed to four workers, then a
// Flush, over a CrashDevice. Whatever the workers' interleaving, the
// flush's Sync must come after all K reached the device: every crash image
// at or after the point the Flush completed holds all K payloads.
func TestHandOutCrashImagesHoldFlushedWrites(t *testing.T) {
	const (
		workers = 4
		k       = 12
		rounds  = 8
	)
	crash := storage.NewCrashDevice(storage.NewMemDevice(blockSize, 2048))
	if err := crash.StartRecording(); err != nil {
		t.Fatal(err)
	}
	_, q, dev, unplug := plugged(t, workers, crash)

	type flushed struct {
		at       int // PersistedWrites when the round's Flush completed
		payloads map[uint64][]byte
	}
	var log []flushed
	for round := 0; round < rounds; round++ {
		if round > 0 {
			unplug = plug(t, q, dev, workers)
		}
		payloads := map[uint64][]byte{}
		var futs []*Future
		for i := 0; i < k; i++ {
			at := uint64(2 * (round*k + i)) // disjoint, never adjacent
			payloads[at] = bytes.Repeat([]byte{byte(1 + round*k + i)}, blockSize)
			futs = append(futs, q.SubmitWrite(at, payloads[at]))
		}
		futs = append(futs, q.Flush())
		unplug()
		if err := WaitAll(futs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		log = append(log, flushed{at: crash.PersistedWrites(), payloads: payloads})
	}

	final := crash.PersistedWrites()
	got := make([]byte, blockSize)
	for r, f := range log {
		if f.at < k {
			t.Fatalf("round %d: flush completed with %d writes persisted, fewer than its own %d", r, f.at, k)
		}
		for n := f.at; n <= final; n++ {
			img, err := crash.CrashImage(n)
			if err != nil {
				t.Fatal(err)
			}
			for at, want := range f.payloads {
				if err := img.ReadBlock(at, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("crash image %d (round %d flushed at %d): block %d lacks its payload", n, r, f.at, at)
				}
			}
		}
	}
}
