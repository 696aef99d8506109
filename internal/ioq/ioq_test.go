package ioq

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
)

const blockSize = 512

// countingDevice counts device requests and records the op sequence for
// barrier tests.
type countingDevice struct {
	storage.Device
	mu         sync.Mutex
	readCalls  int
	writeCalls int
	syncs      int
	log        []string
}

func (d *countingDevice) Do(reqs []storage.Req) error {
	d.mu.Lock()
	for range reqs {
		switch reqs[0].Op {
		case storage.OpRead:
			d.readCalls++
			d.log = append(d.log, "read")
		case storage.OpWrite:
			d.writeCalls++
			d.log = append(d.log, "write")
		case storage.OpSync:
			d.syncs++
			d.log = append(d.log, "sync")
		}
	}
	d.mu.Unlock()
	return storage.Do(d.Device, reqs)
}

// plugDevice lets a test pile requests into the queue deterministically:
// while armed, a write to the plug block parks the worker serving it inside
// the device until the gate opens, so everything submitted meanwhile waits
// in the queue.
type plugDevice struct {
	storage.Device
	plug    uint64
	armed   atomic.Bool
	gate    chan struct{}
	entered chan struct{}
}

func (d *plugDevice) arm() {
	d.gate = make(chan struct{})
	d.entered = make(chan struct{})
	d.armed.Store(true)
}

func (d *plugDevice) Do(reqs []storage.Req) error {
	if r := &reqs[0]; r.Op == storage.OpWrite && r.Start == d.plug && d.armed.CompareAndSwap(true, false) {
		close(d.entered)
		<-d.gate
	}
	return storage.Do(d.Device, reqs)
}

func TestReadWriteRoundtrip(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 1024)
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(dev)

	src := make([]byte, 4*blockSize)
	for i := range src {
		src[i] = byte(i)
	}
	if err := q.SubmitWrite(16, src).Wait(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4*blockSize)
	if err := q.SubmitRead(16, dst).Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("read data differs from written data")
	}
	if err := q.Flush().Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorPropagation(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 64)
	s := NewScheduler(Options{Workers: 1})
	defer s.Close()
	q := s.Register(dev)

	err := q.SubmitWrite(63, make([]byte, 2*blockSize)).Wait()
	if !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range write: got %v, want ErrOutOfRange", err)
	}
	err = q.SubmitRead(0, make([]byte, blockSize/2)).Wait()
	if !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("short read buffer: got %v, want ErrBadBuffer", err)
	}
}

// TestMisalignedSubmitRejectedBeforeMerge pins the submission-time
// alignment check: a buffer that is not a whole number of blocks fails
// its own future immediately and never enters the queue, while the
// aligned requests around it run.
func TestMisalignedSubmitRejectedBeforeMerge(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 1024)
	plug := &plugDevice{Device: mem, plug: 512}
	s := NewScheduler(Options{Workers: 1})
	defer s.Close()
	q := s.Register(plug)

	plug.arm()
	pf := q.SubmitWrite(512, make([]byte, blockSize))
	<-plug.entered
	// A misaligned write between two adjacent aligned ones: it must fail
	// cleanly at submission while its aligned neighbors land.
	a := q.SubmitWrite(0, make([]byte, blockSize))
	bad := q.SubmitWrite(1, make([]byte, blockSize+3))
	if err := bad.Wait(); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned submit: %v, want ErrBadBuffer", err)
	}
	b := q.SubmitWrite(1, make([]byte, blockSize))
	if err := q.SubmitRead(2, make([]byte, blockSize/2)).Wait(); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned read submit: %v, want ErrBadBuffer", err)
	}
	close(plug.gate)
	if err := WaitAll(pf, a, b); err != nil {
		t.Fatalf("aligned neighbors of a rejected request failed: %v", err)
	}
}

// TestFlushBarrier asserts the barrier contract: every write submitted
// before the flush reaches the device before its Sync runs, and a write
// submitted after the flush runs after it.
func TestFlushBarrier(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 1024)
	counter := &countingDevice{Device: mem}
	s := NewScheduler(Options{Workers: 4})
	defer s.Close()
	q := s.Register(counter)

	buf := make([]byte, blockSize)
	var futures []*Future
	for i := 0; i < 16; i++ {
		futures = append(futures, q.SubmitWrite(uint64(i), buf))
	}
	flush := q.Flush()
	after := q.SubmitWrite(100, buf)
	if err := WaitAll(append(futures, flush, after)...); err != nil {
		t.Fatal(err)
	}

	counter.mu.Lock()
	log := append([]string(nil), counter.log...)
	counter.mu.Unlock()
	syncAt := -1
	for i, op := range log {
		if op == "sync" {
			syncAt = i
			break
		}
	}
	if syncAt < 0 {
		t.Fatal("no sync reached the device")
	}
	writesBefore := 0
	for _, op := range log[:syncAt] {
		if op == "write" {
			writesBefore++
		}
	}
	// The 16 pre-flush writes must all land before the sync; the
	// post-flush write must come after. Verify via block accounting.
	if got := mem.WrittenBlocks(); got != 17 {
		t.Fatalf("device holds %d written blocks, want 17", got)
	}
	if log[len(log)-1] != "write" && writesBefore >= len(log)-1 {
		t.Fatal("post-flush write did not execute after the sync")
	}
}

// gateSyncDevice blocks inside Sync until released, recording whether any
// write executed while the sync was in flight.
type gateSyncDevice struct {
	storage.Device
	gate        chan struct{}
	entered     chan struct{}
	once        sync.Once
	armed       atomic.Bool
	syncing     atomic.Bool
	writeDuring atomic.Bool
}

func (d *gateSyncDevice) Do(reqs []storage.Req) error {
	switch reqs[0].Op {
	case storage.OpSync:
		if d.armed.Load() {
			d.once.Do(func() {
				d.syncing.Store(true)
				close(d.entered)
				<-d.gate
				d.syncing.Store(false)
			})
		}
	case storage.OpWrite:
		if d.syncing.Load() {
			d.writeDuring.Store(true)
		}
	}
	return storage.Do(d.Device, reqs)
}

// TestFlushBarrierHoldsDuringSync pins the second half of the barrier
// contract: a request submitted after a Flush must not reach the device
// while the barrier's Sync is still executing — otherwise a power cut
// mid-sync could persist a post-barrier write without the pre-barrier
// data it was ordered after.
func TestFlushBarrierHoldsDuringSync(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 256)
	dev := &gateSyncDevice{
		Device:  mem,
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	s := NewScheduler(Options{Workers: 4})
	defer s.Close()
	q := s.Register(dev)

	buf := make([]byte, blockSize)
	pre := q.SubmitWrite(0, buf)
	dev.armed.Store(true)
	flush := q.Flush()
	<-dev.entered // the barrier's Sync is now in flight
	post := q.SubmitWrite(1, buf)

	// Give the scheduler every chance to (incorrectly) dispatch the
	// post-barrier write, then release the sync.
	for i := 0; i < 20; i++ {
		select {
		case <-post.Done():
			t.Fatal("post-barrier write completed while the barrier Sync was in flight")
		case <-time.After(time.Millisecond):
		}
	}
	close(dev.gate)
	if err := WaitAll(pre, flush, post); err != nil {
		t.Fatal(err)
	}
	if dev.writeDuring.Load() {
		t.Fatal("a write reached the device while the barrier Sync was executing")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 64)
	s := NewScheduler(Options{Workers: 1})
	q := s.Register(dev)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.SubmitWrite(0, make([]byte, blockSize)).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

// TestSerialSemanticsMatchReference replays a random op sequence twice —
// once through the scheduler (waiting each future, i.e. serial use) and
// once directly — and requires identical final device contents.
func TestSerialSemanticsMatchReference(t *testing.T) {
	const blocks = 256
	rng := rand.New(rand.NewSource(42))
	qDev := storage.NewMemDevice(blockSize, blocks)
	refDev := storage.NewMemDevice(blockSize, blocks)
	s := NewScheduler(Options{Workers: 3})
	defer s.Close()
	q := s.Register(qDev)

	for i := 0; i < 500; i++ {
		start := uint64(rng.Intn(blocks - 8))
		n := rng.Intn(8) + 1
		switch rng.Intn(3) {
		case 0:
			buf := make([]byte, n*blockSize)
			rng.Read(buf)
			if err := q.SubmitWrite(start, buf).Wait(); err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteBlocks(refDev, start, buf); err != nil {
				t.Fatal(err)
			}
		case 1:
			got := make([]byte, n*blockSize)
			want := make([]byte, n*blockSize)
			if err := q.SubmitRead(start, got).Wait(); err != nil {
				t.Fatal(err)
			}
			if err := storage.ReadBlocks(refDev, start, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: read mismatch at %d+%d", i, start, n)
			}
		case 2:
			if err := q.Flush().Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := storage.ReadFull(qDev, 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.ReadFull(refDev, 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("final device contents diverge from reference")
	}
}

// TestMergedDispatchMatchesSerialReference is the ioq leg of the
// vec-vs-flat equivalence suite: rounds of disjoint random requests are
// piled deterministically behind a plug write, dispatch once it opens, and
// must be byte-equivalent to the same operations applied serially to a
// reference device.
func TestMergedDispatchMatchesSerialReference(t *testing.T) {
	const (
		blocks  = 512
		plugIdx = blocks - 1
		rounds  = 60
	)
	rng := rand.New(rand.NewSource(271828))
	mem := storage.NewMemDevice(blockSize, blocks)
	ref := storage.NewMemDevice(blockSize, blocks)
	plug := &plugDevice{Device: mem, plug: plugIdx}
	s := NewScheduler(Options{Workers: 1})
	defer s.Close()
	q := s.Register(plug)
	plugBuf := make([]byte, blockSize)

	for round := 0; round < rounds; round++ {
		plug.arm()
		pf := q.SubmitWrite(plugIdx, plugBuf)
		<-plug.entered
		// Disjoint random requests over shuffled block regions, so adjacent
		// regions arrive out of order.
		type pendingRead struct {
			got, want []byte
		}
		var reads []pendingRead
		var futs []*Future
		perm := rng.Perm(15)
		for _, r := range perm {
			start := uint64(r * 32)
			n := rng.Intn(4)*8 + 8
			if rng.Intn(2) == 0 {
				buf := make([]byte, n*blockSize)
				rng.Read(buf)
				futs = append(futs, q.SubmitWrite(start, buf))
				if err := storage.WriteBlocks(ref, start, buf); err != nil {
					t.Fatal(err)
				}
			} else {
				got := make([]byte, n*blockSize)
				want := make([]byte, n*blockSize)
				if err := storage.ReadBlocks(ref, start, want); err != nil {
					t.Fatal(err)
				}
				futs = append(futs, q.SubmitRead(start, got))
				reads = append(reads, pendingRead{got: got, want: want})
			}
		}
		close(plug.gate)
		if err := pf.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
		for i, pr := range reads {
			if !bytes.Equal(pr.got, pr.want) {
				t.Fatalf("round %d: read %d diverges from serial reference", round, i)
			}
		}
	}
	got, err := storage.ReadFull(mem, 0, plugIdx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.ReadFull(ref, 0, plugIdx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("final device contents diverge from serial reference")
	}
}

// TestQuiesceBarrier pins Quiesce semantics: it completes only after every
// older request drains, it runs NO device sync, and requests behind it
// wait for it.
func TestQuiesceBarrier(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 64)
	counter := &countingDevice{Device: mem}
	dev := &plugDevice{Device: counter, plug: 0}
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(dev)

	dev.arm()
	w := q.SubmitWrite(0, make([]byte, blockSize))
	<-dev.entered
	qf := q.Quiesce()
	after := q.SubmitWrite(1, make([]byte, blockSize))
	select {
	case <-qf.Done():
		t.Fatal("quiesce completed while an older write was in flight")
	default:
	}
	close(dev.gate)
	if err := WaitAll(w, qf, after); err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if counter.syncs != 0 {
		t.Fatalf("quiesce ran %d device syncs, want 0", counter.syncs)
	}
	if counter.writeCalls != 2 {
		t.Fatalf("device saw %d write calls, want 2", counter.writeCalls)
	}
}

// TestConcurrentDisjointWriters has many goroutines hammer disjoint
// regions asynchronously; after a final flush every region must hold its
// own last write. Run under -race this is the scheduler's main
// memory-safety test.
func TestConcurrentDisjointWriters(t *testing.T) {
	const (
		writers   = 8
		perWriter = 64 // blocks per region
		rounds    = 30
	)
	dev := storage.NewMemDevice(blockSize, writers*perWriter)
	s := NewScheduler(Options{Workers: 4})
	defer s.Close()
	q := s.Register(dev)

	var wg sync.WaitGroup
	finals := make([][]byte, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w * perWriter)
			var futs []*Future
			for r := 0; r < rounds; r++ {
				n := rng.Intn(4) + 1
				off := uint64(rng.Intn(perWriter - n))
				buf := make([]byte, n*blockSize)
				rng.Read(buf)
				futs = append(futs, q.SubmitWrite(base+off, buf))
				if rng.Intn(5) == 0 {
					if err := q.Flush().Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			// Overlapping in-flight writes are unordered, and any of this
			// writer's may still be at the device on another worker: wait
			// them all so the final write's content is defined.
			if err := WaitAll(futs...); err != nil {
				t.Error(err)
				return
			}
			full := make([]byte, perWriter*blockSize)
			rng2 := rand.New(rand.NewSource(int64(w) + 1000))
			rng2.Read(full)
			if err := q.SubmitWrite(base, full).Wait(); err != nil {
				t.Error(err)
				return
			}
			finals[w] = full
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := q.Flush().Wait(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		got := make([]byte, perWriter*blockSize)
		if err := storage.ReadBlocks(dev, uint64(w*perWriter), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, finals[w]) {
			t.Fatalf("writer %d: final region content lost", w)
		}
	}
}

// TestSchedulerOverThinPool runs the scheduler against real thin volumes:
// async writes, discards and flushes from several goroutines, then
// verifies pool integrity and that the flush-committed state round-trips.
func TestSchedulerOverThinPool(t *testing.T) {
	const (
		volumes = 3
		virt    = 256
	)
	data := storage.NewMemDevice(blockSize, 8192)
	meta := storage.NewMemDevice(blockSize, thinp.MetaBlocksNeeded(8192, blockSize))
	pool, err := thinp.CreatePool(data, meta, thinp.Options{
		Entropy:  prng.NewSeededEntropy(1),
		DummySrc: prng.NewSource(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(Options{Workers: 3})
	defer s.Close()

	var wg sync.WaitGroup
	for v := 1; v <= volumes; v++ {
		if err := pool.CreateThin(v, virt); err != nil {
			t.Fatal(err)
		}
		thin, err := pool.Thin(v)
		if err != nil {
			t.Fatal(err)
		}
		q := s.Register(thin)
		wg.Add(1)
		go func(v int, q *VolumeQueue) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(v)))
			for i := 0; i < 80; i++ {
				vb := uint64(rng.Intn(virt - 4))
				switch rng.Intn(5) {
				case 0, 1:
					buf := make([]byte, blockSize)
					rng.Read(buf)
					if err := q.SubmitWrite(vb, buf).Wait(); err != nil {
						t.Error(err)
						return
					}
				case 2:
					buf := make([]byte, 4*blockSize)
					rng.Read(buf)
					if err := q.SubmitWrite(vb, buf).Wait(); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if err := q.SubmitDiscard(vb, uint64(rng.Intn(4)+1)).Wait(); err != nil {
						t.Error(err)
						return
					}
				case 4:
					if err := q.Flush().Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := q.Flush().Wait(); err != nil {
				t.Error(err)
			}
		}(v, q)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := pool.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The final flush committed everything: reload and compare mappings.
	p2, err := thinp.OpenPool(data, meta, thinp.Options{
		Entropy:  prng.NewSeededEntropy(3),
		DummySrc: prng.NewSource(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= volumes; v++ {
		live, err := pool.MappedVBlocks(v)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := p2.MappedVBlocks(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != len(reloaded) {
			t.Fatalf("thin %d: %d live vs %d reloaded mappings", v, len(live), len(reloaded))
		}
	}
	if ms := pool.MetricsSnapshot(); ms.CommitFlips > ms.CommitCalls {
		t.Fatalf("flips %d > calls %d", ms.CommitFlips, ms.CommitCalls)
	}
}
