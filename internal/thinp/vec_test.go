package thinp

import (
	"bytes"
	"errors"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// vecOver carves buf into a random whole-block segmentation.
func vecOver(src *prng.Source, buf []byte) storage.BlockVec {
	var segs [][]byte
	n := len(buf) / blockSize
	for off := 0; off < n; {
		seg := 1 + int(src.Uint64n(4))
		if seg > n-off {
			seg = n - off
		}
		segs = append(segs, buf[off*blockSize:(off+seg)*blockSize])
		off += seg
	}
	return storage.Vec(blockSize, segs...)
}

// TestThinVecPartialWriteUnwind drives a scatter-gather write into a
// fault-injected data device and asserts the thin layer's partial-
// completion contract holds for vecs: the transferred prefix keeps its
// provisions, provisions beyond it are discarded (they'd read back stale
// physical content), and the PartialError's Done count survives the
// extent/segment translation.
func TestThinVecPartialWriteUnwind(t *testing.T) {
	const virt = 32
	data := storage.NewMemDevice(blockSize, 256)
	fd := storage.NewFlakyDevice(data, storage.FlakyOptions{})
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(256, blockSize))
	p, err := CreatePool(fd, meta, Options{
		Allocator: NewSequentialAllocator(),
		Entropy:   prng.NewSeededEntropy(5),
		DummySrc:  prng.NewSource(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, virt); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 fresh blocks via a 3-segment vec, write budget dies after 5.
	payload := make([]byte, 8*blockSize)
	for i := range payload {
		payload[i] = byte(i%250) + 1
	}
	v := storage.Vec(blockSize, payload[:2*blockSize], payload[2*blockSize:6*blockSize], payload[6*blockSize:])
	fd.FailAfter(storage.OpWrite, 5, nil)
	werr := storage.WriteBlocksVec(thin, 4, v)
	var pe *storage.PartialError
	if !errors.As(werr, &pe) {
		t.Fatalf("error %v, want PartialError", werr)
	}
	if pe.Done != 5 {
		t.Fatalf("Done=%d, want 5", pe.Done)
	}
	// The landed prefix keeps its mappings; the rest was unwound.
	mapped, err := p.MappedBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != 5 {
		t.Fatalf("mapped=%d, want 5 (prefix keeps provisions)", mapped)
	}
	fd.Disarm()
	got := make([]byte, 8*blockSize)
	if err := storage.ReadBlocksVec(thin, 4, storage.Vec(blockSize, got[:3*blockSize], got[3*blockSize:])); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5*blockSize], payload[:5*blockSize]) {
		t.Fatal("landed prefix content mismatch")
	}
	for i := 5 * blockSize; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatal("unwound suffix must read as zeros")
		}
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// stagedNoise is the number of pre-generated noise payloads p holds.
func stagedNoise(p *Pool) int {
	p.stage.mu.Lock()
	defer p.stage.mu.Unlock()
	return len(p.stage.bufs)
}

// TestNoiseStaging pins the staged dummy-noise satellite: pools with a
// policy pre-generate noise payloads outside the mapping lock before
// provisioning passes, dummy writes consume the stage, and policy-less
// pools never stage.
func TestNoiseStaging(t *testing.T) {
	p, _, _ := newTestPool(t, 2048, Options{
		Allocator: NewSequentialAllocator(),
		Policy:    &fixedPolicy{watch: 1, target: 2, count: 4},
	})
	if err := p.CreateThin(1, 256); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 1024); err != nil {
		t.Fatal(err)
	}
	if got := stagedNoise(p); got != 0 {
		t.Fatalf("fresh pool staged %d blocks", got)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// First provisioning write: the stage is stocked on the way in, and
	// the burst (count=4) consumes from it.
	if err := thin.WriteBlock(0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := stagedNoise(p); got != noiseStageTarget-4 {
		t.Fatalf("staged=%d after one burst, want %d", got, noiseStageTarget-4)
	}
	if got := p.DummyBlocksWritten(); got != 4 {
		t.Fatalf("dummy blocks=%d, want 4", got)
	}
	// The next provisioning write tops the stage back up before consuming.
	if err := thin.WriteBlock(1, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := stagedNoise(p); got != noiseStageTarget-4 {
		t.Fatalf("staged=%d after refill+burst, want %d", got, noiseStageTarget-4)
	}
	// Staged noise must be keystream, not junk: every dummy block on the
	// target thin differs from zeros and from every other dummy block.
	tgt, err := p.Thin(2)
	if err != nil {
		t.Fatal(err)
	}
	vbs, err := p.MappedVBlocks(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vbs) != 8 {
		t.Fatalf("target thin has %d dummy blocks, want 8", len(vbs))
	}
	zero := make([]byte, blockSize)
	seen := make(map[string]bool)
	for _, vb := range vbs {
		buf := make([]byte, blockSize)
		if err := tgt.ReadBlock(vb, buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf, zero) {
			t.Fatalf("dummy block %d is zeros", vb)
		}
		if seen[string(buf)] {
			t.Fatalf("dummy block %d repeats another dummy block", vb)
		}
		seen[string(buf)] = true
	}

	// Overwrites (no provisioning) do not touch the stage.
	before := stagedNoise(p)
	if err := thin.WriteBlock(0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := stagedNoise(p); got != before {
		t.Fatalf("overwrite changed stage: %d -> %d", before, got)
	}

	// Policy-less pools never stage.
	p2, _, _ := newTestPool(t, 256, Options{Allocator: NewSequentialAllocator()})
	if err := p2.CreateThin(1, 16); err != nil {
		t.Fatal(err)
	}
	t2, err := p2.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.WriteBlock(0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if got := stagedNoise(p2); got != 0 {
		t.Fatalf("policy-less pool staged %d blocks", got)
	}
}
