package ioq

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mobiceal/internal/storage"
)

func TestSpanOverlaps(t *testing.T) {
	cases := []struct {
		a, b span
		want bool
	}{
		{span{0, 4}, span{4, 8}, false},                                                    // adjacent
		{span{0, 4}, span{3, 8}, true},                                                     // tail overlap
		{span{3, 8}, span{0, 4}, true},                                                     // symmetric
		{span{0, 8}, span{2, 4}, true},                                                     // containment
		{span{2, 4}, span{2, 4}, true},                                                     // identity
		{span{0, 4}, span{10, 12}, false} /* disjoint */, {span{5, 5}, span{0, 10}, false}, // empty span
	}
	for i, c := range cases {
		if got := c.a.overlaps(c.b); got != c.want {
			t.Fatalf("case %d: %v overlaps %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.overlaps(c.a); got != c.want {
			t.Fatalf("case %d: overlap not symmetric", i)
		}
	}
}

// holdDevice gates writes by their start block: a write whose start has a
// registered gate announces itself on entered and parks until the gate
// closes. It makes window occupancy observable from the outside.
type holdDevice struct {
	storage.Device
	mu       sync.Mutex
	gates    map[uint64]chan struct{}
	releases []func()
	entered  chan uint64
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

func (d *holdDevice) park(start uint64) {
	d.mu.Lock()
	g := d.gates[start]
	delete(d.gates, start)
	d.mu.Unlock()
	if g != nil {
		d.entered <- start
		<-g
	}
}

func (d *holdDevice) Do(reqs []storage.Req) error {
	if reqs[0].Op == storage.OpWrite {
		d.park(reqs[0].Start)
	}
	return storage.Do(d.Device, reqs)
}

// waitEntered fails the test unless a write to one of the expected starts
// reaches the device within the deadline.
func waitEntered(t *testing.T, d *holdDevice, timeout time.Duration) uint64 {
	t.Helper()
	select {
	case s := <-d.entered:
		return s
	case <-time.After(timeout):
		t.Fatal("no write reached the device in time")
		return 0
	}
}

// assertNotEntered fails if any write reaches the device within the grace
// period.
func assertNotEntered(t *testing.T, d *holdDevice, grace time.Duration) {
	t.Helper()
	select {
	case s := <-d.entered:
		t.Fatalf("write at %d reached the device while it had to wait", s)
	case <-time.After(grace):
	}
}

// windowScheduler builds a one-queue scheduler over a held device with the
// given window size, plus the plug future trick to pile submissions into
// one batch: the returned release function unplugs the first batch.
func windowScheduler(t *testing.T, maxInFlight int) (*Scheduler, *VolumeQueue, *holdDevice, func()) {
	t.Helper()
	mem := storage.NewMemDevice(blockSize, 1024)
	dev := newHoldDevice(mem)
	s := NewScheduler(Options{Workers: 2, MaxBatch: 16, MergeBlocks: 16, MaxInFlight: maxInFlight})
	t.Cleanup(func() {
		dev.releaseAll()
		s.Close()
	})
	q := s.Register(dev)

	const plugBlock = 1000
	unplug := dev.hold(plugBlock)
	q.SubmitWrite(plugBlock, make([]byte, blockSize))
	if got := waitEntered(t, dev, 5*time.Second); got != plugBlock {
		t.Fatalf("plug write entered as %d", got)
	}
	return s, q, dev, unplug
}

// TestWindowDisjointRunsRunConcurrently is the parallelism proof: with
// MaxInFlight=2, two disjoint runs of one batch must BOTH be at the device
// before either completes, a third must wait for a freed slot, and the
// stall shows up in the metrics.
func TestWindowDisjointRunsRunConcurrently(t *testing.T) {
	s, q, dev, unplug := windowScheduler(t, 2)

	g10 := dev.hold(10)
	g20 := dev.hold(20)
	g30 := dev.hold(30)
	f1 := q.SubmitWrite(10, make([]byte, blockSize))
	f2 := q.SubmitWrite(20, make([]byte, blockSize))
	f3 := q.SubmitWrite(30, make([]byte, blockSize))
	unplug()

	// Two disjoint runs occupy the window together — that is the
	// parallelism the serial dispatcher never had.
	a := waitEntered(t, dev, 5*time.Second)
	b := waitEntered(t, dev, 5*time.Second)
	if a == b || a == 30 || b == 30 {
		t.Fatalf("entered %d then %d, want blocks 10 and 20 concurrently", a, b)
	}
	// The third run is parked on the full window.
	assertNotEntered(t, dev, 50*time.Millisecond)

	// Freeing one slot admits it.
	g10()
	if got := waitEntered(t, dev, 5*time.Second); got != 30 {
		t.Fatalf("after a slot freed, entered %d, want 30", got)
	}
	g20()
	g30()
	if err := WaitAll(f1, f2, f3); err != nil {
		t.Fatal(err)
	}

	m := s.MetricsSnapshot()
	if m.WindowMax != 2 {
		t.Fatalf("WindowMax = %d, want 2", m.WindowMax)
	}
	if m.WindowStalls == 0 {
		t.Fatal("full-window wait left WindowStalls at 0")
	}
	if m.WindowOccupancy != 0 {
		t.Fatalf("window still occupied after drain: %d", m.WindowOccupancy)
	}
}

// TestWindowOverlappingRunsStayOrdered: two overlapping runs of one batch
// execute in elevator order even with window slots to spare — the later
// one cannot enter until the earlier one leaves, so the overlapped blocks
// end up with the later run's bytes.
func TestWindowOverlappingRunsStayOrdered(t *testing.T) {
	_, q, dev, unplug := windowScheduler(t, 4)

	gA := dev.hold(10)
	gB := dev.hold(11)
	bufA := bytes.Repeat([]byte{0xA1}, 2*blockSize) // blocks 10,11
	bufB := bytes.Repeat([]byte{0xB2}, 2*blockSize) // blocks 11,12 — overlaps A
	fA := q.SubmitWrite(10, bufA)
	fB := q.SubmitWrite(11, bufB)
	unplug()

	if got := waitEntered(t, dev, 5*time.Second); got != 10 {
		t.Fatalf("first entered %d, want the elevator-first run at 10", got)
	}
	// B overlaps A's in-flight extent: with 3 free slots it still waits.
	assertNotEntered(t, dev, 50*time.Millisecond)
	gA()
	if got := waitEntered(t, dev, 5*time.Second); got != 11 {
		t.Fatalf("after A released, entered %d, want 11", got)
	}
	gB()
	if err := WaitAll(fA, fB); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 3*blockSize)
	if err := q.SubmitRead(10, got).Wait(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, bufA[:blockSize]...), bufB...)
	if !bytes.Equal(got, want) {
		t.Fatal("overlapping runs applied out of order")
	}
}

// TestWindowBarrierDrainsWholeWindow: a Flush behind a batch must not
// dispatch while ANY run of that batch is still in flight — the barrier
// waits for the whole window, then syncs.
func TestWindowBarrierDrainsWholeWindow(t *testing.T) {
	_, q, dev, unplug := windowScheduler(t, 4)

	g10 := dev.hold(10)
	g20 := dev.hold(20)
	f1 := q.SubmitWrite(10, make([]byte, blockSize))
	f2 := q.SubmitWrite(20, make([]byte, blockSize))
	flush := q.Flush()
	unplug()

	waitEntered(t, dev, 5*time.Second)
	waitEntered(t, dev, 5*time.Second)
	flushDone := make(chan error, 1)
	go func() { flushDone <- flush.Wait() }()
	select {
	case err := <-flushDone:
		t.Fatalf("flush completed (%v) with two writes still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	g10()
	select {
	case err := <-flushDone:
		t.Fatalf("flush completed (%v) with one write still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	g20()
	if err := <-flushDone; err != nil {
		t.Fatalf("flush after drain: %v", err)
	}
	if err := WaitAll(f1, f2); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedDispatchMatchesSerialReference drives the windowed scheduler
// with waves of concurrent disjoint writers plus interleaved reads and
// flushes, and requires byte equivalence with a serially-updated reference
// device — MaxInFlight must change scheduling, never semantics.
func TestWindowedDispatchMatchesSerialReference(t *testing.T) {
	const (
		regions     = 16
		regionSize  = 8
		blocks      = regions * regionSize
		rounds      = 40
		maxInFlight = 4
	)
	rng := rand.New(rand.NewSource(31415))
	mem := storage.NewMemDevice(blockSize, blocks)
	ref := storage.NewMemDevice(blockSize, blocks)
	s := NewScheduler(Options{Workers: 4, MaxBatch: 32, MergeBlocks: 32, MaxInFlight: maxInFlight})
	defer s.Close()
	q := s.Register(mem)

	for round := 0; round < rounds; round++ {
		var futs []*Future
		var mirror []func() error
		for _, r := range rng.Perm(regions) {
			start := uint64(r * regionSize)
			n := rng.Intn(regionSize) + 1
			buf := make([]byte, n*blockSize)
			rng.Read(buf)
			futs = append(futs, q.SubmitWrite(start, buf))
			st := start
			mirror = append(mirror, func() error { return storage.WriteBlocks(ref, st, buf) })
		}
		if round%5 == 4 {
			futs = append(futs, q.Flush())
		}
		if err := WaitAll(futs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, m := range mirror {
			if err := m(); err != nil {
				t.Fatal(err)
			}
		}
		// Spot-check a random region read through the windowed queue.
		r := rng.Intn(regions)
		got := make([]byte, regionSize*blockSize)
		if err := q.SubmitRead(uint64(r*regionSize), got).Wait(); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, regionSize*blockSize)
		if err := storage.ReadBlocks(ref, uint64(r*regionSize), want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: region %d diverged", round, r)
		}
	}

	got, err := storage.ReadFull(mem, 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := storage.ReadFull(ref, 0, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("windowed device contents diverge from serial reference")
	}
}

// TestWindowDefaultIsSerial: MaxInFlight unset (or 1) must not build a
// window at all — the pre-window serial dispatch path, bit for bit.
func TestWindowDefaultIsSerial(t *testing.T) {
	s := NewScheduler(Options{Workers: 1})
	defer s.Close()
	q := s.Register(storage.NewMemDevice(blockSize, 64))
	if q.win != nil {
		t.Fatal("default options built a dispatch window")
	}
	if got := s.MetricsSnapshot().WindowMax; got != 1 {
		t.Fatalf("default WindowMax = %d, want 1", got)
	}
	s2 := NewScheduler(Options{Workers: 1, MaxInFlight: 4})
	defer s2.Close()
	if q2 := s2.Register(storage.NewMemDevice(blockSize, 64)); q2.win == nil {
		t.Fatal("MaxInFlight=4 did not build a dispatch window")
	}
}
