package thinp

import (
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// quietPolicy never fires. It exists so the pool still runs the noise stage
// (stageNoise is skipped entirely for a nil policy) without performing any
// dummy writes.
type quietPolicy struct{}

func (quietPolicy) OnProvision(int) (int, int, bool) { return 0, 0, false }

// onceBurstPolicy fires a single dummy burst of count blocks into target on
// the first provision of the watched thin, then stays quiet.
type onceBurstPolicy struct {
	watch, target, count int
	fired                bool
}

func (p *onceBurstPolicy) OnProvision(thinID int) (int, int, bool) {
	if p.fired || thinID != p.watch {
		return 0, 0, false
	}
	p.fired = true
	return p.target, p.count, true
}

// publicPoolView is everything an adversary could learn from the pool's
// telemetry plus the accounting wraps around its devices — counters, event
// kinds and exact traffic volumes, with wall-clock durations stripped
// (latency sums differ between any two runs; only their sample counts are
// part of the deniability claim).
type publicPoolView struct {
	provisions, releases   uint64
	allocSamples           uint64
	commitCalls, flips     uint64
	foldSamples            uint64
	writeSamples           uint64
	totalSamples           uint64
	noiseStaged            int64
	eventKinds             string
	allocatedBlocks        uint64
	dataWrites, dataBytes  uint64
	dataReads              uint64
	metaWrites, metaReads  uint64
	metaBytesW, metaBytesR uint64
}

func publicView(t *testing.T, p *Pool, data, meta *storage.StatsDevice) publicPoolView {
	t.Helper()
	snap := p.MetricsSnapshot()
	ds := data.Metrics().Snapshot()
	ms := meta.Metrics().Snapshot()
	var kinds string
	for _, e := range snap.Events {
		kinds += e.Kind + ";"
	}
	return publicPoolView{
		provisions:      snap.Provisions,
		releases:        snap.Releases,
		allocSamples:    snap.AllocLat.Count,
		commitCalls:     snap.CommitCalls,
		flips:           snap.CommitFlips,
		foldSamples:     snap.CommitFoldLat.Count,
		writeSamples:    snap.CommitWriteLat.Count,
		totalSamples:    snap.CommitTotalLat.Count,
		noiseStaged:     snap.NoiseStaged,
		eventKinds:      kinds,
		allocatedBlocks: p.AllocatedBlocks(),
		dataWrites:      ds.WriteBlocks,
		dataBytes:       ds.BytesWrite,
		dataReads:       ds.ReadBlocks,
		metaWrites:      ms.WriteBlocks,
		metaReads:       ms.ReadBlocks,
		metaBytesW:      ms.BytesWrite,
		metaBytesR:      ms.BytesRead,
	}
}

// TestTelemetryDeniabilityTwinPools pins the choke-point accounting claim:
// a pool whose extra traffic is hidden-volume writes and a pool whose extra
// traffic is dummy-write noise of the same size present byte-for-byte
// identical public telemetry. This is the "identical by construction"
// property DESIGN.md's Observability section argues — if any counter,
// histogram sample count, gauge or event were recorded on a path only one
// of the two traffic kinds takes, the views would diverge and this test
// would catch it.
//
// Pool D carries the deniable workload: P public writes to thin 1 plus H
// hidden writes to thin 2, dummy policy armed but never firing. Pool C is
// the cover story an adversary must find equally plausible: the same P
// public writes, with the policy firing one H-block dummy burst into thin 2
// instead. Identical totals in, identical telemetry out.
//
// It runs under both allocators. Under the random one the twins share the
// allocator seed: hidden writes and dummy blocks each cost exactly one draw
// at the same choke point, so block k lands identically in both twins and
// the bitmap words, and with them the metadata writes, move in step.
func TestTelemetryDeniabilityTwinPools(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		twinPoolTelemetry(t, func() Allocator { return NewSequentialAllocator() })
	})
	t.Run("random", func(t *testing.T) {
		twinPoolTelemetry(t, func() Allocator { return NewRandomAllocator(prng.NewSource(77)) })
	})
}

func twinPoolTelemetry(t *testing.T, newAlloc func() Allocator) {
	const (
		dataBlocks = 512
		pubBlocks  = 16 // P: public writes in both runs
		hidBlocks  = 8  // H: hidden writes (D) == dummy burst (C)
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
			Allocator: newAlloc(),
			Policy:    policy,
			Entropy:   prng.NewSeededEntropy(seed),
			DummySrc:  prng.NewSource(seed + 1),
		})
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
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

	// Different entropy seeds on purpose: the equality must hold because of
	// where the counters sit, not because the runs are bitwise replays.
	d := build(quietPolicy{}, 11)
	c := build(&onceBurstPolicy{watch: 1, target: 2, count: hidBlocks}, 22)

	// Pool D: public writes interleaved with hidden writes.
	writeBlocks(d, 1, pubBlocks/2)
	writeBlocks(d, 2, hidBlocks)
	writeBlocks(d, 1, pubBlocks) // overwrites first half, provisions rest
	// Pool C: the burst fires on the very first public provision; later
	// public writes restock the noise stage the burst drained, so both runs
	// end with a full stage.
	writeBlocks(c, 1, pubBlocks/2)
	writeBlocks(c, 1, pubBlocks)

	for _, tw := range []twin{d, c} {
		if err := tw.pool.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	vd := publicView(t, d.pool, d.data, d.meta)
	vc := publicView(t, c.pool, c.data, c.meta)

	if vd.provisions != uint64(pubBlocks+hidBlocks) {
		t.Fatalf("pool D provisions = %d, want %d", vd.provisions, pubBlocks+hidBlocks)
	}
	if got, want := vd, vc; got != want {
		t.Fatalf("public telemetry diverges between hidden and dummy runs:\n D: %+v\n C: %+v", got, want)
	}
	// The hidden/dummy split is visible only through the experiments-only
	// accessor, never through the snapshot compared above.
	if d.pool.DummyBlocksWritten() != 0 {
		t.Fatalf("pool D wrote %d dummy blocks, want 0", d.pool.DummyBlocksWritten())
	}
	if c.pool.DummyBlocksWritten() != uint64(hidBlocks) {
		t.Fatalf("pool C dummy blocks = %d, want %d", c.pool.DummyBlocksWritten(), hidBlocks)
	}
}
