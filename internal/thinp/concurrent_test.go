package thinp

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// gateDevice wraps a device and, once armed, blocks the next Sync call
// until the gate is opened — letting a test hold one commit in its
// device-I/O phase while other committers pile up at the commit door.
type gateDevice struct {
	storage.Device
	armed   atomic.Bool
	gate    chan struct{}
	waiting chan struct{}
	once    sync.Once
}

func newGateDevice(inner storage.Device) *gateDevice {
	return &gateDevice{
		Device:  inner,
		gate:    make(chan struct{}),
		waiting: make(chan struct{}),
	}
}

func (d *gateDevice) Sync() error {
	if d.armed.Load() {
		d.once.Do(func() {
			close(d.waiting)
			<-d.gate
		})
	}
	return d.Device.Sync()
}

// TestGroupCommitFolds pins the group-commit door's folding behavior
// deterministically: while one commit's slot I/O is blocked in the device,
// N concurrent committers arrive; exactly one of them leads a single
// follow-up round covering all N, so N+1 Commit calls cost exactly 2 slot
// flips — and every caller's delta is durable afterwards.
func TestGroupCommitFolds(t *testing.T) {
	const followers = 8
	data := storage.NewMemDevice(blockSize, 4096)
	rawMeta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(4096, blockSize))
	meta := newGateDevice(rawMeta)
	p, err := CreatePool(data, meta, Options{
		Entropy:  prng.NewSeededEntropy(1),
		DummySrc: prng.NewSource(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= followers+1; id++ {
		if err := p.CreateThin(id, 256); err != nil {
			t.Fatal(err)
		}
	}
	// Arm the gate only now: CreatePool's own format commit must not trip it.
	meta.armed.Store(true)
	buf := make([]byte, blockSize)
	write := func(id int, vb uint64) {
		thin, err := p.Thin(id)
		if err != nil {
			t.Error(err)
			return
		}
		if err := thin.WriteBlock(vb, buf); err != nil {
			t.Error(err)
		}
	}

	// Leader 1: its commit blocks inside the metadata device.
	write(1, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Commit(); err != nil {
			t.Error(err)
		}
	}()
	<-meta.waiting

	// N followers: the first becomes the next round's leader and parks on
	// the commit mutex; the rest join its batch.
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(id int) {
			defer wg.Done()
			write(id, 1)
			if err := p.Commit(); err != nil {
				t.Error(err)
			}
		}(i + 2)
	}
	// Wait until every follower is parked at the door (calls counts each
	// Commit on entry), then release the gate.
	for {
		if p.m.CommitCalls.Load() == followers+1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(meta.gate)
	wg.Wait()

	ms := p.MetricsSnapshot()
	calls, flips := ms.CommitCalls, ms.CommitFlips
	if calls != followers+1 {
		t.Fatalf("calls = %d, want %d", calls, followers+1)
	}
	if flips != 2 {
		t.Fatalf("slot flips = %d, want 2 (one blocked leader + one folded round)", flips)
	}

	// Durability: every caller's delta is in the committed image.
	p2, err := OpenPool(data, rawMeta, Options{
		Entropy:  prng.NewSeededEntropy(3),
		DummySrc: prng.NewSource(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= followers+1; id++ {
		n, err := p2.MappedBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("thin %d: %d mapped blocks after reopen, want 1", id, n)
		}
	}
	if err := p2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPoolStress hammers one pool from many goroutines — reads,
// overwrite and provisioning writes, range ops, discards, and mid-run
// commits — then verifies the pool invariants and that the committed
// metadata round-trips. Run under -race this doubles as the data-race
// check for the decomposed locking.
func TestConcurrentPoolStress(t *testing.T) {
	const (
		workers = 8
		thins   = 4
		virt    = 512
		opsEach = 300
	)
	p, data, meta := newTestPool(t, 8192, Options{})
	for id := 1; id <= thins; id++ {
		if err := p.CreateThin(id, virt); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var commits atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			thin, err := p.Thin(w%thins + 1)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, blockSize)
			big := make([]byte, 8*blockSize)
			for i := 0; i < opsEach; i++ {
				vb := uint64(rng.Intn(virt))
				switch rng.Intn(10) {
				case 0, 1, 2:
					rng.Read(buf)
					if err := thin.WriteBlock(vb, buf); err != nil {
						t.Error(err)
						return
					}
				case 3, 4:
					if vb+8 > virt {
						vb = virt - 8
					}
					rng.Read(big)
					if err := storage.WriteBlocks(thin, vb, big); err != nil {
						t.Error(err)
						return
					}
				case 5, 6, 7:
					if err := thin.ReadBlock(vb, buf); err != nil {
						t.Error(err)
						return
					}
				case 8:
					if err := thin.Discard(vb); err != nil {
						t.Error(err)
						return
					}
				case 9:
					if err := p.Commit(); err != nil {
						t.Error(err)
						return
					}
					commits.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after concurrent stress: %v", err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	// The committed metadata must round-trip to exactly the live state.
	p2, err := OpenPool(data, meta, Options{
		Entropy:  prng.NewSeededEntropy(11),
		DummySrc: prng.NewSource(12),
	})
	if err != nil {
		t.Fatalf("reopening after stress: %v", err)
	}
	if err := p2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= thins; id++ {
		live, err := p.MappedVBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := p2.MappedVBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != len(reloaded) {
			t.Fatalf("thin %d: %d live vs %d reloaded mappings", id, len(live), len(reloaded))
		}
		for i := range live {
			if live[i] != reloaded[i] {
				t.Fatalf("thin %d: mapping %d diverged", id, i)
			}
		}
	}
	if ms := p.MetricsSnapshot(); ms.CommitFlips > ms.CommitCalls {
		t.Fatalf("flips %d > calls %d", ms.CommitFlips, ms.CommitCalls)
	}
}

// TestWriteDiscardReallocNoCrossThinCorruption pins the fix for the
// stale-write hazard: thin I/O holds the pool's shared lock across the
// data transfer, so a concurrent discard + commit (quarantine release) +
// reallocation can never retarget an in-flight write at a block that now
// belongs to another thin. Victim thin B continuously verifies its own
// blocks while thin A's writers race discarders and committers over the
// same physical pool with a sequential allocator (maximizing reuse).
func TestWriteDiscardReallocNoCrossThinCorruption(t *testing.T) {
	const (
		virt   = 64
		rounds = 400
	)
	p, _, _ := newTestPool(t, 256, Options{Allocator: NewSequentialAllocator()})
	if err := p.CreateThin(1, virt); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, virt); err != nil {
		t.Fatal(err)
	}
	thinA, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	thinB, err := p.Thin(2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Thin A: writers provisioning and discarders freeing the same
	// vblocks, with commits releasing the free-quarantine so physical
	// blocks become reallocatable while writes are in flight.
	wg.Add(3)
	go func() {
		defer wg.Done()
		buf := make([]byte, blockSize)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := thinA.WriteBlock(uint64(i%16), buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := storage.Discard(thinA, 0, 16); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Thin B (the victim): write a known pattern, read it straight back.
	// If a stale write from thin A ever lands on a block reallocated to
	// B, the verify fails.
	pattern := make([]byte, blockSize)
	got := make([]byte, blockSize)
	for r := 0; r < rounds && !t.Failed(); r++ {
		vb := uint64(r % 8)
		for i := range pattern {
			pattern[i] = byte(r + i)
		}
		if err := thinB.WriteBlock(vb, pattern); err != nil {
			t.Fatal(err)
		}
		if err := thinB.ReadBlock(vb, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pattern, got) {
			t.Fatalf("round %d: thin B block %d corrupted by cross-thin traffic", r, vb)
		}
		if r%32 == 31 {
			if err := storage.Discard(thinB, 0, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersDoNotBlock verifies the shared read path end to
// end: readers of different thins make progress while a writer holds the
// pool busy provisioning. (A correctness smoke test, not a timing
// assertion — the -race run is what would catch locking mistakes.)
func TestConcurrentReadersDoNotBlock(t *testing.T) {
	p, _, _ := newTestPool(t, 4096, Options{})
	for id := 1; id <= 3; id++ {
		if err := p.CreateThin(id, 512); err != nil {
			t.Fatal(err)
		}
	}
	w, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for i := uint64(0); i < 128; i++ {
		if err := w.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := 2; id <= 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thin, err := p.Thin(id)
			if err != nil {
				t.Error(err)
				return
			}
			dst := make([]byte, blockSize)
			for i := 0; i < 2000; i++ {
				if err := thin.ReadBlock(uint64(i%512), dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := make([]byte, blockSize)
		for i := uint64(128); i < 384; i++ {
			if err := w.WriteBlock(i, src); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
