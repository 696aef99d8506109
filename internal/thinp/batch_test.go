package thinp

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

var errScatter = errors.New("thinp test: extent failed")

// scatterDevice completes a batch the way a submission ring does: every
// request is attempted, in no promised order, and a failed one does not
// stop the ones submitted with it. failAt scripts the request index that
// fails in the next write batch (-1: none).
type scatterDevice struct {
	*storage.MemDevice
	failAt  int
	batches []int // requests per batch seen, writes and reads alike
}

func (d *scatterDevice) Do(reqs []storage.Req) error {
	if op := reqs[0].Op; op != storage.OpRead && op != storage.OpWrite {
		return storage.Each(reqs, func(one []storage.Req) error { return d.MemDevice.Sync() })
	}
	write := reqs[0].Op == storage.OpWrite
	d.batches = append(d.batches, len(reqs))
	for i := len(reqs) - 1; i >= 0; i-- { // back to front: no order to rely on
		r := &reqs[i]
		r.Done, r.Err = 0, nil
		if write && i == d.failAt {
			r.Err = errScatter
			continue
		}
		if write {
			r.Err = d.MemDevice.WriteBlocksVec(r.Start, r.Vec)
		} else {
			r.Err = d.MemDevice.ReadBlocksVec(r.Start, r.Vec)
		}
		if r.Err == nil {
			r.Done = r.Vec.Len()
		}
	}
	if write {
		d.failAt = -1
	}
	if i := storage.FirstFailed(reqs); i < len(reqs) {
		return reqs[i].Err
	}
	return nil
}

// TestThinBatchPrefixRule: a fresh 8-block write goes down as one batch of
// 8 scattered extents; the 5th fails while the 6th to 8th land. The thin
// layer must still present a prefix: vblocks before the failed extent hold
// the data, and from the failed block on the range reads zeros — the
// provisions of the extents that landed after it are unwound with the
// rest, so no data sits above a hole the write reported.
func TestThinBatchPrefixRule(t *testing.T) {
	const dataBlocks = 4096
	dev := &scatterDevice{MemDevice: storage.NewMemDevice(blockSize, dataBlocks), failAt: -1}
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(dev, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(77)),
		Entropy:   prng.NewSeededEntropy(5),
		DummySrc:  prng.NewSource(6),
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
	payload := make([]byte, 8*blockSize)
	for i := range payload {
		payload[i] = byte(i%250) + 1
	}

	dev.failAt = 4
	werr := storage.WriteBlocks(thin, 8, payload)
	if !errors.Is(werr, errScatter) {
		t.Fatalf("write = %v, want the scripted extent failure", werr)
	}
	if len(dev.batches) != 1 || dev.batches[0] != 8 {
		t.Fatalf("fresh 8-block write went down as batches %v, want one of 8 "+
			"(the random allocator merged extents: pick another seed)", dev.batches)
	}
	if mapped, _ := p.MappedBlocks(1); mapped != 4 {
		t.Fatalf("mapped = %d, want 4: the prefix keeps its provisions and nothing else does", mapped)
	}
	got := make([]byte, 8*blockSize)
	if err := storage.ReadBlocks(thin, 8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:4*blockSize], payload[:4*blockSize]) {
		t.Fatal("vblocks before the failed extent lost their data")
	}
	if !bytes.Equal(got[4*blockSize:], make([]byte, 4*blockSize)) {
		t.Fatal("vblocks from the failed extent on must read zeros, landed or not")
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// The same write again succeeds and the read twin batches too.
	dev.batches = nil
	if err := storage.WriteBlocks(thin, 8, payload); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(thin, 8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("retry did not land")
	}
	if len(dev.batches) != 2 || dev.batches[0] != 8 || dev.batches[1] != 8 {
		t.Fatalf("retry write + read went down as batches %v, want [8 8]", dev.batches)
	}
}

// TestDummyBurstBatchPrefixRule: a dummy burst is one batch like a real
// write, and fails like one — the noise blocks before the failed one stay
// mapped, that one and the ones after it are unmapped even though their
// noise landed, and the provisioning write that triggered the burst is
// unwound with the error.
func TestDummyBurstBatchPrefixRule(t *testing.T) {
	const dataBlocks = 4096
	dev := &scatterDevice{MemDevice: storage.NewMemDevice(blockSize, dataBlocks), failAt: -1}
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(dev, meta, Options{
		Policy:    &onceBurstPolicy{watch: 1, target: 2, count: 8},
		Allocator: NewRandomAllocator(prng.NewSource(78)),
		Entropy:   prng.NewSeededEntropy(7),
		DummySrc:  prng.NewSource(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if err := p.CreateThin(id, 128); err != nil {
			t.Fatal(err)
		}
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	dev.failAt = 5
	werr := thin.WriteBlock(0, make([]byte, blockSize))
	if !errors.Is(werr, errScatter) {
		t.Fatalf("write = %v, want the burst's failure", werr)
	}
	if len(dev.batches) != 1 || dev.batches[0] != 8 {
		t.Fatalf("8-block burst went down as batches %v, want one of 8", dev.batches)
	}
	if got := p.DummyBlocksWritten(); got != 5 {
		t.Fatalf("dummy blocks written = %d, want the 5 before the failed one", got)
	}
	if mapped, _ := p.MappedBlocks(2); mapped != 5 {
		t.Fatalf("burst target maps %d blocks, want 5", mapped)
	}
	if mapped, _ := p.MappedBlocks(1); mapped != 0 {
		t.Fatalf("triggering provision survived the failed burst: %d mapped", mapped)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// filePublicView is publicPoolView plus the file backend's syscall
// accounting — everything FileSyscalls exposes.
type filePublicView struct {
	pool publicPoolView
	file storage.FileSyscalls
}

// TestTelemetryDeniabilityTwinPoolsOnFile is the twin-pool telemetry test
// on a real file, extended to the syscall counters. Pool D writes one
// 8-block hidden extent set; pool C lets the policy fire one 8-block dummy
// burst instead. Both must be one submission of 8 requests: if the burst
// wrote its blocks one pwritev at a time while the hidden write batched,
// PwritevCalls and BatchReqs would separate the two in telemetry.
func TestTelemetryDeniabilityTwinPoolsOnFile(t *testing.T) {
	const (
		bs         = storage.DirectAlign
		dataBlocks = 2048
		pubBlocks  = 16
		hidBlocks  = 8
	)
	type twin struct {
		pool       *Pool
		file       *storage.FileDevice
		data, meta *storage.StatsDevice
	}
	build := func(name string, policy DummyPolicy, seed uint64) twin {
		t.Helper()
		metaBlocks := MetaBlocksNeeded(dataBlocks, bs)
		// O_DIRECT where the filesystem grants it — only a direct image
		// batches — and buffered elsewhere (tmpfs), where the views must
		// agree all the same.
		path := filepath.Join(t.TempDir(), name)
		file, err := storage.CreateFileDeviceWith(path, bs, metaBlocks+dataBlocks, storage.FileOptions{Direct: true})
		if errors.Is(err, storage.ErrDirectUnsupported) {
			file, err = storage.CreateFileDevice(path, bs, metaBlocks+dataBlocks)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = file.Close() })
		metaSlice, err := storage.NewSliceDevice(file, 0, metaBlocks)
		if err != nil {
			t.Fatal(err)
		}
		dataSlice, err := storage.NewSliceDevice(file, metaBlocks, dataBlocks)
		if err != nil {
			t.Fatal(err)
		}
		data, meta := storage.NewStatsDevice(dataSlice), storage.NewStatsDevice(metaSlice)
		p, err := CreatePool(data, meta, Options{
			Policy: policy,
			// The same placement seed in both pools: scattered extents are
			// the premise, and a pair of adjacent picks would merge two of
			// the hidden write's extents into one request.
			Allocator: NewRandomAllocator(prng.NewSource(4242)),
			Entropy:   prng.NewSeededEntropy(seed),
			DummySrc:  prng.NewSource(seed + 1),
		})
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		for id, virt := range map[int]uint64{1: 64, 2: 128} {
			if err := p.CreateThin(id, virt); err != nil {
				t.Fatal(err)
			}
		}
		return twin{pool: p, file: file, data: data, meta: meta}
	}
	write := func(tw twin, thinID int, start uint64, n int) {
		t.Helper()
		thin, err := tw.pool.Thin(thinID)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteBlocks(thin, start, storage.AlignedBuf(n*bs)); err != nil {
			t.Fatalf("thin %d write: %v", thinID, err)
		}
	}
	publicBlocks := func(tw twin, from, to int) {
		for i := from; i < to; i++ {
			write(tw, 1, uint64(i), 1)
		}
	}

	d := build("hidden.img", quietPolicy{}, 11)
	c := build("dummy.img", &onceBurstPolicy{watch: 1, target: 2, count: hidBlocks}, 22)

	// Pool D: one public block, the hidden 8-block write, the rest of the
	// public blocks. Pool C: the burst fires on the first public provision.
	publicBlocks(d, 0, 1)
	write(d, 2, 0, hidBlocks)
	publicBlocks(d, 1, pubBlocks)
	publicBlocks(c, 0, pubBlocks)
	for _, tw := range []twin{d, c} {
		if err := tw.pool.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	view := func(tw twin) filePublicView {
		return filePublicView{pool: publicView(t, tw.pool, tw.data, tw.meta), file: tw.file.Syscalls()}
	}
	vd, vc := view(d), view(c)
	if vd != vc {
		t.Fatalf("public view diverges between hidden and dummy runs:\n D: %+v\n C: %+v", vd, vc)
	}
	if vd.file.Ring && (vd.file.BatchCalls != 1 || vd.file.BatchReqs != hidBlocks) {
		t.Fatalf("the 8-block write did not go down as one batch of 8: %+v", vd.file)
	}
	// Noise buffers are page-aligned by contract (storage.AlignedBuf), like
	// the hidden write's: a bounce on one side only would be a telemetry
	// split, and a bounce on either sends the batch down the serial path.
	if vd.file.BounceCopies != 0 || vc.file.BounceCopies != 0 {
		t.Fatalf("bounce copies: hidden twin %d, dummy twin %d, want 0 on both",
			vd.file.BounceCopies, vc.file.BounceCopies)
	}
	if d.pool.DummyBlocksWritten() != 0 || c.pool.DummyBlocksWritten() != hidBlocks {
		t.Fatalf("dummy blocks: D %d, C %d", d.pool.DummyBlocksWritten(), c.pool.DummyBlocksWritten())
	}
}
