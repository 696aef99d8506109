package thinp

import (
	"bytes"
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

// TestShardedUnshardedEquivalence is the commit-equivalence suite the shard
// design promises (shard.go): a sharded and an unsharded random-allocator
// pool driven by the same seeds and the same serial workload — writes,
// overwrites, discards, dummy bursts, interleaved commits — must place every
// block identically and write byte-identical data AND metadata images at
// every commit point. This pins both halves of the runtime-only claim: the
// globally-uniform rank decomposition picks exactly the block the unsharded
// bm.NthFree would, and the two-level commit door folds per-shard deltas
// into the same on-disk v2 image one logical bitmap always had.
func TestShardedUnshardedEquivalence(t *testing.T) {
	const (
		dataBlocks = 4096
		virt       = 1024
		ops        = 800
	)

	type rig struct {
		pool       *Pool
		data, meta *storage.MemDevice
		thins      map[int]*Thin
	}
	build := func(shards int) rig {
		t.Helper()
		data := storage.NewMemDevice(blockSize, dataBlocks)
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
		p, err := CreatePool(data, meta, Options{
			Allocator: NewRandomAllocator(prng.NewSource(7)),
			Entropy:   prng.NewSeededEntropy(3),
			DummySrc:  prng.NewSource(5),
			Policy:    &everyNthPolicy{every: 5, target: 2, count: 2},
			shards:    shards,
		})
		if err != nil {
			t.Fatalf("CreatePool(shards=%d): %v", shards, err)
		}
		r := rig{pool: p, data: data, meta: meta, thins: map[int]*Thin{}}
		for _, id := range []int{1, 2} {
			if err := p.CreateThin(id, virt); err != nil {
				t.Fatalf("CreateThin(%d): %v", id, err)
			}
			th, err := p.Thin(id)
			if err != nil {
				t.Fatal(err)
			}
			r.thins[id] = th
		}
		return r
	}

	unsharded := build(1)
	sharded := build(0) // auto-shards: 4096 blocks = 64 words -> 8 shards
	if n := sharded.pool.ShardCount(); n < 2 {
		t.Fatalf("auto shard count = %d, want > 1 (test would compare a pool with itself)", n)
	}
	if n := unsharded.pool.ShardCount(); n != 1 {
		t.Fatalf("shards: 1 gave %d shards", n)
	}

	// One deterministic op script, applied to both rigs in lockstep.
	type op struct {
		kind  int // 0 = write, 1 = discard, 2 = commit, 3 = discard-then-write
		thin  int
		vb    uint64
		count uint64
	}
	rng := rand.New(rand.NewSource(42))
	script := make([]op, 0, ops)
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(20); {
		case k < 11:
			script = append(script, op{kind: 0, thin: 1 + k%2, vb: uint64(rng.Intn(virt))})
		case k < 14:
			script = append(script, op{kind: 3, thin: 1 + k%2, vb: uint64(rng.Intn(virt))})
		case k < 18:
			script = append(script, op{kind: 1, thin: 1 + k%2,
				vb: uint64(rng.Intn(virt)), count: uint64(1 + rng.Intn(8))})
		default:
			script = append(script, op{kind: 2})
		}
	}
	script = append(script, op{kind: 2})

	buf := make([]byte, blockSize)
	for i, o := range script {
		for _, r := range []rig{unsharded, sharded} {
			switch o.kind {
			case 0:
				buf[0], buf[1] = byte(i), byte(o.thin)
				if err := r.thins[o.thin].WriteBlock(o.vb, buf); err != nil {
					t.Fatalf("op %d: write thin %d vb %d: %v", i, o.thin, o.vb, err)
				}
			case 1:
				count := o.count
				if o.vb+count > virt {
					count = virt - o.vb
				}
				if err := storage.Discard(r.thins[o.thin], o.vb, count); err != nil {
					t.Fatalf("op %d: discard thin %d [%d,%d): %v", i, o.thin, o.vb, o.vb+count, err)
				}
			case 3:
				// Same vblock, same round: a committed entry comes back
				// with equal add and remove sets, the in-place entry patch.
				buf[0], buf[1] = byte(i), byte(o.thin)
				if err := r.thins[o.thin].Discard(o.vb); err != nil {
					t.Fatalf("op %d: discard thin %d vb %d: %v", i, o.thin, o.vb, err)
				}
				if err := r.thins[o.thin].WriteBlock(o.vb, buf); err != nil {
					t.Fatalf("op %d: rewrite thin %d vb %d: %v", i, o.thin, o.vb, err)
				}
			case 2:
				if err := r.pool.Commit(); err != nil {
					t.Fatalf("op %d: commit: %v", i, err)
				}
			}
		}
		if o.kind != 2 {
			continue
		}
		// Every commit point must leave the two pools indistinguishable on
		// disk and in their logical accounting.
		if a, b := unsharded.pool.AllocatedBlocks(), sharded.pool.AllocatedBlocks(); a != b {
			t.Fatalf("op %d: allocated blocks diverge: unsharded %d, sharded %d", i, a, b)
		}
		if a, b := unsharded.pool.DummyBlocksWritten(), sharded.pool.DummyBlocksWritten(); a != b {
			t.Fatalf("op %d: dummy blocks diverge: unsharded %d, sharded %d", i, a, b)
		}
		if !bytes.Equal(deviceImage(t, unsharded.data), deviceImage(t, sharded.data)) {
			t.Fatalf("op %d: data device images diverge", i)
		}
		if !bytes.Equal(deviceImage(t, unsharded.meta), deviceImage(t, sharded.meta)) {
			t.Fatalf("op %d: meta device images diverge", i)
		}
	}
	if unsharded.pool.DummyBlocksWritten() == 0 {
		t.Fatal("workload fired no dummy bursts; equivalence never exercised the dummy picker")
	}
	for _, r := range []rig{unsharded, sharded} {
		if err := r.pool.CheckIntegrity(); err != nil {
			t.Fatalf("integrity: %v", err)
		}
		if err := r.pool.CheckConsistency(); err != nil {
			t.Fatalf("shard consistency: %v", err)
		}
	}
}

// TestShardedPickerUniformity is the distribution half of the deniability
// claim: under CONCURRENT writers — where the serial bit-equivalence test
// above cannot reach — the sharded picker's placements must still be
// uniform over the pool's free space, never uniform-per-shard. Eight
// writers provision public blocks while the policy fires one dummy block
// into a shared target thin per provision; afterwards both the full
// allocation set and the dummy subset alone are chi-squared against the
// uniform expectation across shards. The thresholds are generous (p ~ 1e-6
// at the respective degrees of freedom); a per-shard-uniform or
// home-shard-biased picker overshoots them by an order of magnitude.
func TestShardedPickerUniformity(t *testing.T) {
	const (
		dataBlocks = 8192 // 128 words -> 16 auto shards of 512 blocks
		writers    = 8
		perWriter  = 128
		dummyThin  = 9
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
	nShards := p.ShardCount()
	if nShards < 8 {
		t.Fatalf("shard count = %d, want >= 8 for a meaningful distribution test", nShards)
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
	// A committer drains per-shard deltas through the two-level door while
	// the writers run, so the counted distribution survives commits too.
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

	// Bin 1: every allocation (public + dummy), via per-shard gauges.
	caps := make([]uint64, nShards)
	allocs := make([]uint64, nShards)
	var total uint64
	p.mu.RLock()
	for i, s := range p.shards {
		caps[i] = s.hi - s.lo
		allocs[i] = caps[i] - uint64(s.free.Load())
		total += allocs[i]
	}
	p.mu.RUnlock()
	if want := uint64(writers*perWriter) + p.DummyBlocksWritten(); total != want {
		t.Fatalf("allocated %d blocks, want %d (%d public + %d dummy)",
			total, want, writers*perWriter, p.DummyBlocksWritten())
	}
	if x := chi2(allocs, total, caps, dataBlocks); x > 64 {
		t.Fatalf("allocation distribution chi-squared = %.1f over %d shards (want < 64); bins: %v",
			x, nShards, allocs)
	}

	// Bin 2: the dummy subset alone — walk the dummy thin's mappings and bin
	// its physical placements by shard. This is the picker an adversary
	// would fingerprint: dummy blocks clustering in any shard would tie
	// physical layout to write origin.
	dummyBins := make([]uint64, nShards)
	var dummyTotal uint64
	p.mu.RLock()
	p.thins[dummyThin].pt.forEach(func(vb, pb uint64) bool {
		dummyBins[p.shardIndexOf(pb)]++
		dummyTotal++
		return true
	})
	p.mu.RUnlock()
	if dummyTotal < writers*perWriter/2 {
		t.Fatalf("only %d dummy blocks placed; too few for a distribution test", dummyTotal)
	}
	if x := chi2(dummyBins, dummyTotal, caps, dataBlocks); x > 64 {
		t.Fatalf("dummy placement chi-squared = %.1f over %d shards (want < 64); bins: %v",
			x, nShards, dummyBins)
	}

	if err := p.CheckConsistency(); err != nil {
		t.Fatalf("shard consistency after concurrent workload: %v", err)
	}
}

// shardView is the adversary-visible slice of one shard's telemetry:
// gauge value and lock-acquire sample count, with wall-clock durations
// stripped exactly as publicPoolView strips them.
type shardView struct {
	free  int64
	lockN uint64
}

func shardViews(p *Pool) []shardView {
	snap := p.MetricsSnapshot()
	out := make([]shardView, len(snap.Shards))
	for i, s := range snap.Shards {
		out[i] = shardView{free: s.Free, lockN: s.LockLat.Count}
	}
	return out
}

// TestShardedTwinPoolDeniability extends the twin-pool telemetry claim to
// the per-shard gauge surface: on a SHARDED pool under the production
// picker (RandomAllocator through pickUniform), a run whose extra traffic is
// hidden-volume writes and a run whose extra traffic is an equal-sized
// dummy burst into the same thin must present identical per-shard free
// gauges and lock-acquire sample counts — on top of the byte-identical
// pool/device telemetry the unsharded twin test already pins. Both traffic
// kinds flow through the same allocate() choke point and cost exactly one
// draw of the allocator's stream per block, whichever thin receives it, so
// twins whose allocators start from the same seed place block k identically
// and every shard's counters move in step; a draw or a counter spent on only
// one of the two paths would split the twins here.
func TestShardedTwinPoolDeniability(t *testing.T) {
	const (
		dataBlocks = 512
		shards     = 8
		pubBlocks  = 16
		hidBlocks  = 8
	)

	type twin struct {
		pool       *Pool
		data, meta *storage.StatsDevice
	}
	build := func(policy DummyPolicy, seed uint64) twin {
		t.Helper()
		data := storage.NewStatsDevice(storage.NewMemDevice(blockSize, dataBlocks))
		meta := storage.NewStatsDevice(storage.NewMemDevice(blockSize,
			MetaBlocksNeeded(dataBlocks, blockSize)))
		p, err := CreatePool(data, meta, Options{
			Allocator: NewRandomAllocator(prng.NewSource(77)),
			Policy:    policy,
			Entropy:   prng.NewSeededEntropy(seed),
			DummySrc:  prng.NewSource(seed + 1),
			shards:    shards,
		})
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		if n := p.ShardCount(); n != shards {
			t.Fatalf("shard count = %d, want %d", n, shards)
		}
		for id, virt := range map[int]uint64{1: 64, 2: 128} {
			if err := p.CreateThin(id, virt); err != nil {
				t.Fatalf("CreateThin(%d): %v", id, err)
			}
		}
		return twin{pool: p, data: data, meta: meta}
	}
	writeBlocks := func(tw twin, thinID int, n int) {
		t.Helper()
		thin, err := tw.pool.Thin(thinID)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blockSize)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			if err := thin.WriteBlock(uint64(i), buf); err != nil {
				t.Fatalf("thin %d write %d: %v", thinID, i, err)
			}
		}
	}

	// Different entropy and dummy-offset seeds on purpose, as in the
	// unsharded twin test: noise bytes and dummy vblocks differ between the
	// twins, so the per-shard equality comes from where the counters sit and
	// from the one-draw-per-block rule, not from bitwise replay.
	d := build(quietPolicy{}, 31)
	c := build(&onceBurstPolicy{watch: 1, target: 2, count: hidBlocks}, 42)

	writeBlocks(d, 1, pubBlocks/2)
	writeBlocks(d, 2, hidBlocks) // hidden writes
	writeBlocks(d, 1, pubBlocks)
	writeBlocks(c, 1, pubBlocks/2) // burst fires here
	writeBlocks(c, 1, pubBlocks)

	for _, tw := range []twin{d, c} {
		if err := tw.pool.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	vd, vc := publicView(t, d.pool, d.data, d.meta), publicView(t, c.pool, c.data, c.meta)
	if vd != vc {
		t.Fatalf("public telemetry diverges on sharded twins:\n D: %+v\n C: %+v", vd, vc)
	}
	sd, sc := shardViews(d.pool), shardViews(c.pool)
	if len(sd) != shards || len(sc) != shards {
		t.Fatalf("shard view lengths: D %d, C %d, want %d", len(sd), len(sc), shards)
	}
	for i := range sd {
		if sd[i] != sc[i] {
			t.Fatalf("shard %d telemetry diverges between hidden and dummy runs:\n D: %+v\n C: %+v",
				i, sd[i], sc[i])
		}
	}
	if d.pool.DummyBlocksWritten() != 0 {
		t.Fatalf("pool D wrote %d dummy blocks, want 0", d.pool.DummyBlocksWritten())
	}
	if c.pool.DummyBlocksWritten() != uint64(hidBlocks) {
		t.Fatalf("pool C dummy blocks = %d, want %d", c.pool.DummyBlocksWritten(), hidBlocks)
	}
}

// TestCheckConsistencySharded drives a mixed concurrent workload — writes,
// discards, commits — against an auto-sharded random pool and requires the
// shard-level invariants to hold at a mid-flight transaction boundary, after
// the final commit, and on a reopened pool.
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
		// Mid-flight: uncommitted txAlloc/txFree deltas sit in the shards.
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
