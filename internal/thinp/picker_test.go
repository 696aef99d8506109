package thinp

import (
	"math/rand"
	"sync"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// everyNthPolicy fires a dummy burst of count blocks into target on every
// n-th provision, regardless of which thin provisioned. Deterministic in
// the provision sequence, so two pools driven by the same serial workload
// fire identical bursts at identical points. The mutex makes the counter
// safe under concurrent provisioning tests (the production policies are
// already concurrency-safe; this helper must match).
type everyNthPolicy struct {
	every, target, count int
	mu                   sync.Mutex
	seen                 int
}

func (p *everyNthPolicy) OnProvision(int) (int, int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen++
	if p.seen%p.every != 0 {
		return 0, 0, false
	}
	return p.target, p.count, true
}

// deviceImage reads the device's full content as one byte slice.
func deviceImage(t *testing.T, dev *storage.MemDevice) []byte {
	t.Helper()
	buf := make([]byte, int(dev.NumBlocks())*dev.BlockSize())
	if err := storage.ReadBlocks(dev, 0, buf); err != nil {
		t.Fatalf("reading device image: %v", err)
	}
	return buf
}

// TestShardedPickerUniformity is the distribution half of the deniability
// claim: under CONCURRENT writers — where the serial placement pin
// (TestAllocatorPlacementPinned) cannot reach — the picker's placements
// must still be uniform over the pool's free space. Eight writers provision
// public blocks while the policy fires one dummy block into a shared target
// thin per provision; afterwards both the full allocation set and the dummy
// subset alone are chi-squared against the uniform expectation across the
// bitmap's 512-block rank-index groups. The thresholds are generous
// (p ~ 1e-6 at the respective degrees of freedom); a picker biased towards
// any region of the disk overshoots them by an order of magnitude. (The
// name predates the removal of allocation sharding.)
func TestShardedPickerUniformity(t *testing.T) {
	const (
		dataBlocks = 8192 // 16 groups of 512 blocks
		writers    = 8
		perWriter  = 128
		dummyThin  = 9
		group      = 1 << rankGroupBits
		nGroups    = dataBlocks / group
	)

	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(101)),
		Entropy:   prng.NewSeededEntropy(102),
		DummySrc:  prng.NewSource(103),
		Policy:    &everyNthPolicy{every: 1, target: dummyThin, count: 1},
	})
	if err != nil {
		t.Fatalf("CreatePool: %v", err)
	}
	for w := 1; w <= writers; w++ {
		if err := p.CreateThin(w, perWriter*2); err != nil {
			t.Fatalf("CreateThin(%d): %v", w, err)
		}
	}
	if err := p.CreateThin(dummyThin, dataBlocks/2); err != nil {
		t.Fatalf("CreateThin(dummy): %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th, err := p.Thin(w)
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, blockSize)
			for i := 0; i < perWriter; i++ {
				buf[0] = byte(i)
				if err := th.WriteBlock(uint64(i), buf); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// A committer runs beside the writers, so the counted distribution
	// survives commits too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := p.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent workload: %v", err)
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("final commit: %v", err)
	}

	chi2 := func(obs []uint64, total uint64, caps []uint64, space uint64) float64 {
		var x float64
		for i, o := range obs {
			e := float64(total) * float64(caps[i]) / float64(space)
			d := float64(o) - e
			x += d * d / e
		}
		return x
	}

	// Bin 1: every allocation (public + dummy), via the bitmap's group
	// counts.
	caps := make([]uint64, nGroups)
	allocs := make([]uint64, nGroups)
	var total uint64
	p.mu.RLock()
	for g := range allocs {
		caps[g] = group
		allocs[g] = p.allocBM.idx.prefix(g+1) - p.allocBM.idx.prefix(g)
		total += allocs[g]
	}
	p.mu.RUnlock()
	if want := uint64(writers*perWriter) + p.DummyBlocksWritten(); total != want {
		t.Fatalf("allocated %d blocks, want %d (%d public + %d dummy)",
			total, want, writers*perWriter, p.DummyBlocksWritten())
	}
	if x := chi2(allocs, total, caps, dataBlocks); x > 64 {
		t.Fatalf("allocation distribution chi-squared = %.1f over %d groups (want < 64); bins: %v",
			x, nGroups, allocs)
	}

	// Bin 2: the dummy subset alone — walk the dummy thin's mappings and bin
	// its physical placements by group. This is the picker an adversary
	// would fingerprint: dummy blocks clustering in any region would tie
	// physical layout to write origin.
	dummyBins := make([]uint64, nGroups)
	var dummyTotal uint64
	p.mu.RLock()
	p.thins[dummyThin].pt.forEach(func(vb, pb uint64) bool {
		dummyBins[pb/group]++
		dummyTotal++
		return true
	})
	p.mu.RUnlock()
	if dummyTotal < writers*perWriter/2 {
		t.Fatalf("only %d dummy blocks placed; too few for a distribution test", dummyTotal)
	}
	if x := chi2(dummyBins, dummyTotal, caps, dataBlocks); x > 64 {
		t.Fatalf("dummy placement chi-squared = %.1f over %d groups (want < 64); bins: %v",
			x, nGroups, dummyBins)
	}

	if err := p.CheckConsistency(); err != nil {
		t.Fatalf("allocator consistency after concurrent workload: %v", err)
	}
}

// TestCheckConsistencySharded drives a mixed concurrent workload — writes,
// discards, commits — against a random-allocator pool and requires the
// allocator invariants (rank indexes, bitmaps, transaction record) to hold
// at a mid-flight transaction boundary, after the final commit, and on a
// reopened pool. (The name predates the removal of allocation sharding.)
func TestCheckConsistencySharded(t *testing.T) {
	const (
		dataBlocks = 4096
		workers    = 4
		rounds     = 3
	)
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(201)),
		Entropy:   prng.NewSeededEntropy(202),
	})
	if err != nil {
		t.Fatalf("CreatePool: %v", err)
	}
	for w := 1; w <= workers; w++ {
		if err := p.CreateThin(w, 256); err != nil {
			t.Fatalf("CreateThin(%d): %v", w, err)
		}
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 1; w <= workers; w++ {
			wg.Add(1)
			go func(w, round int) {
				defer wg.Done()
				th, err := p.Thin(w)
				if err != nil {
					errs <- err
					return
				}
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				buf := make([]byte, blockSize)
				for i := 0; i < 128; i++ {
					vb := uint64(rng.Intn(256))
					if rng.Intn(4) == 0 {
						err = th.Discard(vb)
					} else {
						buf[0] = byte(i)
						err = th.WriteBlock(vb, buf)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(w, round)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		// Mid-flight: the transaction record holds uncommitted allocations
		// and quarantined frees.
		if err := p.CheckConsistency(); err != nil {
			t.Fatalf("round %d: consistency with open transaction: %v", round, err)
		}
		if err := p.Commit(); err != nil {
			t.Fatalf("round %d: commit: %v", round, err)
		}
		if err := p.CheckConsistency(); err != nil {
			t.Fatalf("round %d: consistency after commit: %v", round, err)
		}
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}

	reopened, err := OpenPool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(203)),
	})
	if err != nil {
		t.Fatalf("OpenPool: %v", err)
	}
	if err := reopened.CheckConsistency(); err != nil {
		t.Fatalf("reopened pool consistency: %v", err)
	}
}
