package thinp

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mobiceal/internal/prng"
	"mobiceal/internal/spin"
	"mobiceal/internal/storage"
)

// parkDevice parks the next block read, once armed, until released — a
// transfer that sits in the device, and so holds its thin's lock shared,
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
// budgets while a fresh write to the same thin wants the thin lock
// exclusively: the writer must give up polling, park, and still complete
// once the reader leaves — with real parallelism and on one P, where it
// must not poll at all. Meanwhile a fresh write to thin 65 must not wait
// for either of them: each thin has a lock of its own, and 65 is the id a
// lock table striped by id mod 64 would pair with thin 1.
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
	for _, id := range []int{1, 65} {
		if err := p.CreateThin(id, 64); err != nil {
			t.Fatal(err)
		}
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Thin(65)
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
	<-data.parked // the reader holds thin 1's lock shared from here on

	fresh := bytes.Repeat([]byte{0x22}, blockSize)
	writeDone := make(chan error, 1)
	go func() { writeDone <- thin.WriteBlock(1, fresh) }()
	select {
	case err := <-writeDone:
		t.Fatalf("procs=%d: write finished (%v) while a read held the thin lock", procs, err)
	case <-time.After(4 * spin.Budget):
	}
	otherDone := make(chan error, 1)
	go func() { otherDone <- other.WriteBlock(0, fresh) }()
	select {
	case err := <-otherDone:
		if err != nil {
			t.Errorf("procs=%d: write to thin 65: %v", procs, err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("procs=%d: write to thin 65 waited on thin 1's parked read", procs)
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

// TestThinLockOwnsItsCacheLines pins the padding around the thin lock: no
// byte of another heap object, nor of the record's own fields that every
// request reads, may share a cache line with the lock, wherever in a line
// the record is allocated.
func TestThinLockOwnsItsCacheLines(t *testing.T) {
	var tm thinMeta
	lockStart := unsafe.Offsetof(tm.mu)
	lockEnd := lockStart + unsafe.Sizeof(tm.mu)
	if lockStart < cacheLine {
		t.Errorf("thin lock at offset %d, want at least %d bytes of padding before it", lockStart, cacheLine)
	}
	if after := unsafe.Offsetof(tm.id) - lockEnd; after < cacheLine {
		t.Errorf("%d bytes between the thin lock and the next field, want at least %d", after, cacheLine)
	}
}

// TestPoolLockOffItsReadMostlyFields pins the padding after the pool lock:
// every request read-locks it, and reads the fields after it.
func TestPoolLockOffItsReadMostlyFields(t *testing.T) {
	var p Pool
	if gap := unsafe.Offsetof(p.data) - (unsafe.Offsetof(p.mu) + unsafe.Sizeof(p.mu)); gap < cacheLine {
		t.Errorf("%d bytes between the pool lock and the data device, want at least %d", gap, cacheLine)
	}
}
