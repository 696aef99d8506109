package thinp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/spin"
	"mobiceal/internal/storage"
)

// parkDoDevice parks the next write request list, once armed, until
// released — a write transfer that sits in the device, holding its thin's
// transfer guard shared, for as long as the test likes. It is the
// request-level twin of parkDevice: the thin sends a write's extents as
// one Do call. landed is set once the parked list has reached the device
// below.
type parkDoDevice struct {
	*storage.MemDevice
	armed   atomic.Bool
	landed  atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (d *parkDoDevice) Do(reqs []storage.Req) error {
	if len(reqs) > 0 && reqs[0].Op == storage.OpWrite && d.armed.CompareAndSwap(true, false) {
		close(d.parked)
		<-d.release
		err := d.MemDevice.Do(reqs)
		d.landed.Store(true)
		return err
	}
	return d.MemDevice.Do(reqs)
}

// TestTransferGuardStress pins the transfer guard: a write's data transfer
// holds its thin's guard instead of its thin lock, and every unmap waits
// for it.
func TestTransferGuardStress(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d/parked", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			guardParked(t)
		})
	}
	t.Run("ownership", guardOwnership)
}

// guardParked parks a fresh write's transfer in the data device: a fresh
// write to another vblock of the same thin must complete meanwhile, and a
// discard of the parked vblock must not return before the transfer lands.
func guardParked(t *testing.T) {
	data := &parkDoDevice{
		MemDevice: storage.NewMemDevice(blockSize, 128),
		parked:    make(chan struct{}),
		release:   make(chan struct{}),
	}
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(128, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(1)),
		Entropy:   prng.NewSeededEntropy(2),
		DummySrc:  prng.NewSource(3),
	})
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

	data.armed.Store(true)
	parkedBuf := bytes.Repeat([]byte{0x33}, blockSize)
	writeDone := make(chan error, 1)
	go func() { writeDone <- thin.WriteBlock(0, parkedBuf) }()
	<-data.parked // the write holds thin 1's transfer guard from here on

	fresh := bytes.Repeat([]byte{0x44}, blockSize)
	freshDone := make(chan error, 1)
	go func() { freshDone <- thin.WriteBlock(5, fresh) }()
	select {
	case err := <-freshDone:
		if err != nil {
			t.Fatalf("fresh write beside the parked transfer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a fresh write to vblock 5 waited on the parked transfer to vblock 0")
	}

	discardDone := make(chan error, 1)
	go func() {
		err := thin.Discard(0)
		if err == nil && !data.landed.Load() {
			err = fmt.Errorf("discard returned before the parked transfer landed")
		}
		discardDone <- err
	}()
	select {
	case err := <-discardDone:
		t.Fatalf("discard of the parked vblock returned (%v) while its transfer was in the device", err)
	case <-time.After(4 * spin.Budget):
	}
	close(data.release)
	if err := <-writeDone; err != nil {
		t.Fatalf("parked write: %v", err)
	}
	if err := <-discardDone; err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := thin.ReadBlock(5, got); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("vblock 5 does not hold the fresh write (err %v)", err)
	}
	if err := thin.ReadBlock(0, got); err != nil || !bytes.Equal(got, make([]byte, blockSize)) {
		t.Fatalf("discarded vblock 0 does not read zeros (err %v)", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// ownerDevice records which data blocks have a write transfer in flight
// and holds each transfer in the device for a while, so that a block freed
// under one has time to be handed out again. The pool's allocator reports
// every pick to it: picking a block with a transfer in flight means the
// block was free while data was still being written to it.
type ownerDevice struct {
	*storage.MemDevice
	mu         sync.Mutex
	inFlight   map[uint64]int
	violations []string
}

func (d *ownerDevice) Do(reqs []storage.Req) error {
	if len(reqs) == 0 || reqs[0].Op != storage.OpWrite {
		return d.MemDevice.Do(reqs)
	}
	d.mark(reqs, 1)
	time.Sleep(20 * time.Microsecond)
	err := d.MemDevice.Do(reqs)
	d.mark(reqs, -1)
	return err
}

func (d *ownerDevice) mark(reqs []storage.Req, delta int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range reqs {
		for i := 0; i < r.Vec.Len(); i++ {
			d.inFlight[r.Start+uint64(i)] += delta
		}
	}
}

func (d *ownerDevice) picked(pb uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inFlight[pb] > 0 && len(d.violations) < 8 {
		d.violations = append(d.violations, fmt.Sprintf("block %d allocated while a write to it was in flight", pb))
	}
}

// pickWatch reports every allocator pick to an ownerDevice.
type pickWatch struct {
	Allocator
	dev *ownerDevice
}

func (a *pickWatch) PickFree(bm *Bitmap) (uint64, error) {
	pb, err := a.Allocator.PickFree(bm)
	if err == nil {
		a.dev.picked(pb)
	}
	return pb, err
}

// guardOwnership runs writers and a discarder on one thin, beside a
// writer recycling a second thin's blocks, over a pool small enough that
// a freed block is soon handed out again, with no commit, so every free
// returns to the allocator at once. No transfer may land on a block that
// is free or mapped by another thin at that moment: the device sees no
// pick of a block under a transfer, and every mapped vblock reads back a
// payload its own thin wrote to it.
func guardOwnership(t *testing.T) {
	const (
		dataBlocks = 32
		virt1      = 12
		virt2      = 8
		ops        = 1500
	)
	data := &ownerDevice{MemDevice: storage.NewMemDevice(blockSize, dataBlocks), inFlight: map[uint64]int{}}
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: &pickWatch{Allocator: NewRandomAllocator(prng.NewSource(5)), dev: data},
		Entropy:   prng.NewSeededEntropy(6),
		DummySrc:  prng.NewSource(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, virt := range map[int]uint64{1: virt1, 2: virt2} {
		if err := p.CreateThin(id, virt); err != nil {
			t.Fatal(err)
		}
	}
	thin1, _ := p.Thin(1)
	thin2, _ := p.Thin(2)
	// A payload names its thin and vblock.
	payload := func(id int, vb uint64) []byte {
		buf := make([]byte, blockSize)
		binary.LittleEndian.PutUint64(buf, uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], vb)
		return buf
	}

	// The writers of thin 1 run a fixed number of ops; the discarder and
	// thin 2's recycler run until they are done.
	var writers, others sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, 8)
	// loop runs fn n times, or until stop when n is 0.
	loop := func(wg *sync.WaitGroup, n int, seed uint64, fn func(src *prng.Source) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := prng.NewSource(seed)
			for i := 0; n > 0 && i < n || n == 0 && !stop.Load(); i++ {
				if err := fn(src); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := uint64(0); w < 3; w++ {
		loop(&writers, ops, 10+w, func(src *prng.Source) error {
			vb := src.Uint64n(virt1)
			return thin1.WriteBlock(vb, payload(1, vb))
		})
	}
	loop(&others, 0, 20, func(src *prng.Source) error {
		runtime.Gosched()
		return thin1.Discard(src.Uint64n(virt1))
	})
	loop(&others, 0, 30, func(src *prng.Source) error {
		vb := src.Uint64n(virt2)
		if err := thin2.Discard(vb); err != nil {
			return err
		}
		return thin2.WriteBlock(vb, payload(2, vb))
	})
	writers.Wait()
	stop.Store(true)
	others.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, v := range data.violations {
		t.Error(v)
	}
	got := make([]byte, blockSize)
	for id, thin := range map[int]*Thin{1: thin1, 2: thin2} {
		vbs, err := p.MappedVBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, vb := range vbs {
			if err := thin.ReadBlock(vb, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload(id, vb)) {
				t.Errorf("thin %d vblock %d holds thin %d vblock %d's payload", id, vb,
					binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(got[8:]))
			}
		}
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
