package thinp

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// parkDevice parks the next block read, once armed, until released — a
// transfer that sits in the device, and so holds its thin's stripe shared,
// for as long as the test likes. It has only the per-block methods, so a
// thin's transfers reach it block by block.
type parkDevice struct {
	storage.Device
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (d *parkDevice) ReadBlock(idx uint64, dst []byte) error {
	if d.armed.CompareAndSwap(true, false) {
		close(d.parked)
		<-d.release
	}
	return d.Device.ReadBlock(idx, dst)
}

// TestStripeLockOutlastsSpin holds a read in the device for several spin
// budgets while a fresh write to the same thin wants the stripe
// exclusively: the writer must give up polling, park, and still complete
// once the reader leaves — with real parallelism and on one P, where it
// must not poll at all.
func TestStripeLockOutlastsSpin(t *testing.T) {
	for _, procs := range []int{1, 4} {
		stripeLockOutlastsSpin(t, procs)
	}
}

func stripeLockOutlastsSpin(t *testing.T, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	data := &parkDevice{
		Device:  storage.NewMemDevice(blockSize, 128),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(128, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(1), DummySrc: prng.NewSource(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0x11}, blockSize)
	if err := thin.WriteBlock(0, old); err != nil {
		t.Fatal(err)
	}

	data.armed.Store(true)
	readDone := make(chan error, 1)
	go func() { readDone <- thin.ReadBlock(0, make([]byte, blockSize)) }()
	<-data.parked // the reader holds the stripe shared from here on

	fresh := bytes.Repeat([]byte{0x22}, blockSize)
	writeDone := make(chan error, 1)
	go func() { writeDone <- thin.WriteBlock(1, fresh) }()
	select {
	case err := <-writeDone:
		t.Fatalf("procs=%d: write finished (%v) while a read held the stripe", procs, err)
	case <-time.After(4 * stripeSpin):
	}
	close(data.release)
	if err := <-readDone; err != nil {
		t.Fatalf("procs=%d: read: %v", procs, err)
	}
	if err := <-writeDone; err != nil {
		t.Fatalf("procs=%d: write: %v", procs, err)
	}
	got := make([]byte, blockSize)
	if err := thin.ReadBlock(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("procs=%d: block 1 does not hold what the parked writer wrote", procs)
	}
}

// TestSpinAcquireBudget pins the helper's three outcomes: it stops at the
// first success, it gives up after about stripeSpin, and on one P it tries
// exactly once (the holder cannot run while the caller polls).
func TestSpinAcquireBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	polls := 0
	if !spinAcquire(func() bool { polls++; return polls == 100 }) || polls != 100 {
		t.Errorf("succeeding on the 100th poll: polls = %d", polls)
	}
	polls = 0
	start := time.Now()
	ok := spinAcquire(func() bool { polls++; return false })
	if took := time.Since(start); ok || polls < 2 || took < stripeSpin {
		t.Errorf("never succeeding: ok %v after %d polls in %v, want false after at least %v", ok, polls, took, stripeSpin)
	}

	runtime.GOMAXPROCS(1)
	polls = 0
	if spinAcquire(func() bool { polls++; return false }) || polls != 1 {
		t.Errorf("GOMAXPROCS 1: %d polls, want exactly 1", polls)
	}
}
