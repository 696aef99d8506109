package storage

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"mobiceal/internal/prng"
)

// writtenBlocks is the number of blocks of d that were explicitly written:
// the written bits of its slabs.
func writtenBlocks(d *MemDevice) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, dir := range d.root {
		if dir == nil {
			continue
		}
		for _, s := range dir.slabs {
			if s != nil {
				n += bits.OnesCount64(s.written)
			}
		}
	}
	return n
}

// newNoisyMemDevice returns a MemDevice with every block written with
// seeded pseudorandom bytes: the image of a device filled with randomness
// at initialization, on which a read that zero-fills shows.
func newNoisyMemDevice(t testing.TB, bs int, blocks uint64, seed uint64) *MemDevice {
	t.Helper()
	d := NewMemDevice(bs, blocks)
	noise := make([]byte, int(blocks)*bs)
	if _, err := prng.NewSource(seed).Read(noise); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocks(d, 0, noise); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMemDeviceOverwriteAfterSnapshot holds the generation rule: a slab a
// snapshot sealed is never written in place. The first overwrite batch
// after the capture clones what it touches, the snapshot keeps its bytes,
// and only the clones take later overwrites in place.
func TestMemDeviceOverwriteAfterSnapshot(t *testing.T) {
	const bs = 64
	d := NewMemDevice(bs, 4*slabBlocks)
	old := make([]byte, 2*slabBlocks*bs)
	rand.New(rand.NewSource(1)).Read(old)
	if err := WriteBlocks(d, 0, old); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	written := writtenBlocks(d)

	// Two requests, each straddling the boundary of the two written slabs
	// or lying inside one of them.
	next := make([]byte, 9*bs)
	rand.New(rand.NewSource(2)).Read(next)
	batch := func() []Req {
		return []Req{
			{Op: OpWrite, Start: 2, Vec: Vec(bs, next[:4*bs])},
			{Op: OpWrite, Start: 7, Vec: Vec(bs, next[4*bs:6*bs], next[6*bs:])},
		}
	}
	inPlace := func(reqs []Req) bool {
		d.mu.RLock()
		defer d.mu.RUnlock()
		for i := range reqs {
			if !d.inPlace(&reqs[i]) {
				return false
			}
		}
		return true
	}
	reqs := batch()
	if inPlace(reqs) {
		t.Fatal("an overwrite of sealed slabs qualifies for the in-place path")
	}
	if err := d.Do(reqs); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, len(old))
	if err := ReadBlocks(snap, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("the snapshot changed under an overwrite batch")
	}
	want := append([]byte(nil), old...)
	copy(want[2*bs:], next[:4*bs])
	copy(want[7*bs:], next[4*bs:])
	if err := ReadBlocks(d, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the device does not show the overwrite batch")
	}
	if n := writtenBlocks(d); n != written {
		t.Fatalf("WrittenBlocks moved from %d to %d on an overwrite", written, n)
	}
	if !inPlace(batch()) {
		t.Fatal("an overwrite of the cloned slabs does not qualify for the in-place path")
	}
}

// TestMemDeviceStressInPlace runs in-place overwrites, first writes, reads
// and a snapshot against one another. Four writers overwrite tagged whole
// blocks of four shared slabs in batched Do calls (the shared path); one
// writer makes first writes into fresh slabs (the exclusive path); two
// readers require every block they read to hold one tag, never two halves;
// a snapshot taken mid-run must read back the same after the writers stop.
// Under the race detector it also checks the slab lock on both sides.
func TestMemDeviceStressInPlace(t *testing.T) {
	const (
		bs      = 256
		shared  = 4 * slabBlocks // blocks every overwriter works on
		fresh   = 64             // first writes, one per fresh slab
		batches = 400            // per overwriter
		readers = 2
	)
	d := NewMemDevice(bs, dirBlocks+2*fresh*slabBlocks)
	tag := func(dst []byte, v uint64) {
		for i := 0; i < len(dst); i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	}
	whole := func(blk []byte) bool {
		for i := 8; i < len(blk); i += 8 {
			if !bytes.Equal(blk[i:i+8], blk[:8]) {
				return false
			}
		}
		return true
	}
	prime := make([]byte, shared*bs)
	for b := 0; b < shared; b++ {
		tag(prime[b*bs:(b+1)*bs], uint64(b))
	}
	if err := WriteBlocks(d, 0, prime); err != nil {
		t.Fatal(err)
	}
	// Fresh slab k starts here: half in the first directory, half in a
	// second one that does not exist yet.
	freshAt := func(k int) uint64 {
		if k%2 == 0 {
			return uint64(shared + k*slabBlocks)
		}
		return uint64(dirBlocks + k*slabBlocks)
	}

	var (
		writers sync.WaitGroup
		all     sync.WaitGroup
		stop    atomic.Bool
		errs    = make(chan string, 8)
		snapc   = make(chan *Snapshot, 1)
	)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	for w := 1; w <= 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 2*slabBlocks*bs)
			for i := 0; i < batches; i++ {
				// Two disjoint requests: one in each half of the shared
				// slabs, each up to a slab long, most straddling slabs.
				reqs := make([]Req, 2)
				for h := range reqs {
					n := 1 + rng.Intn(slabBlocks)
					start := h*shared/2 + rng.Intn(shared/2-n+1)
					seg := buf[h*slabBlocks*bs : (h*slabBlocks+n)*bs]
					for b := 0; b < n; b++ {
						tag(seg[b*bs:(b+1)*bs], uint64(w)<<32|uint64(i))
					}
					reqs[h] = Req{Op: OpWrite, Start: uint64(start), Vec: Vec(bs, seg)}
					if n > 1 {
						reqs[h].Vec = Vec(bs, seg[:bs], seg[bs:])
					}
				}
				if err := d.Do(reqs); err != nil {
					fail("overwrite: " + err.Error())
					return
				}
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		defer close(snapc)
		blk := make([]byte, 2*bs)
		for k := 0; k < fresh; k++ {
			if k == fresh/2 {
				// Half-way through the first writes, with the other
				// goroutines running.
				snapc <- d.Snapshot()
			}
			tag(blk, 1<<48|uint64(k))
			if err := d.Do([]Req{{Op: OpWrite, Start: freshAt(k), Vec: Vec(bs, blk)}}); err != nil {
				fail("first write: " + err.Error())
				return
			}
		}
	}()
	all.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer all.Done()
			buf := make([]byte, (shared+2*slabBlocks)*bs)
			for !stop.Load() {
				reqs := []Req{
					{Op: OpRead, Start: 0, Vec: Vec(bs, buf[:shared/2*bs], buf[shared/2*bs:shared*bs])},
					{Op: OpRead, Start: shared, Vec: Vec(bs, buf[shared*bs:])},
				}
				if err := d.Do(reqs); err != nil {
					fail("read: " + err.Error())
					return
				}
				for b := 0; b*bs < len(buf); b++ {
					if !whole(buf[b*bs : (b+1)*bs]) {
						fail("a read saw a torn block")
						return
					}
				}
			}
		}()
	}

	snap := <-snapc
	if snap == nil {
		t.Fatal(<-errs)
	}
	image := func() []byte {
		img := make([]byte, int(d.NumBlocks())*bs)
		if err := ReadBlocks(snap, 0, img); err != nil {
			t.Fatal(err)
		}
		return img
	}
	during := image()
	writers.Wait()
	stop.Store(true)
	all.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if !bytes.Equal(image(), during) {
		t.Fatal("the snapshot changed after its capture")
	}
	if got, want := writtenBlocks(d), shared+2*fresh; got != want {
		t.Fatalf("WrittenBlocks = %d, want %d", got, want)
	}
	blk, want := make([]byte, 2*bs), make([]byte, 2*bs)
	for k := 0; k < fresh; k++ {
		if err := ReadBlocks(d, freshAt(k), blk); err != nil {
			t.Fatal(err)
		}
		if tag(want, 1<<48|uint64(k)); !bytes.Equal(blk, want) {
			t.Fatalf("first write %d reads back wrong", k)
		}
	}
}

// TestMemDeviceLockOffItsReadMostlyFields pins the padding before the
// device lock: every request writes its reader count, and every layer
// above reads the block size per request.
func TestMemDeviceLockOffItsReadMostlyFields(t *testing.T) {
	var d MemDevice
	if gap := unsafe.Offsetof(d.mu) - (unsafe.Offsetof(d.root) + unsafe.Sizeof(d.root)); gap < 64 {
		t.Errorf("%d bytes between the read-mostly fields and the device lock, want at least 64", gap)
	}
}
