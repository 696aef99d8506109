package thinp

import (
	"bytes"
	"math/rand"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// metaImage reads the full metadata device content.
func metaImage(t *testing.T, meta storage.Device) []byte {
	t.Helper()
	raw, err := storage.ReadFull(meta, 0, meta.NumBlocks())
	if err != nil {
		t.Fatalf("reading metadata image: %v", err)
	}
	return raw
}

// driveMutations applies a deterministic mutation workload: writes that
// provision, overwrites, discards and a thin create/delete.
func driveMutations(t *testing.T, p *Pool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for i := 0; i < 120; i++ {
		vb := uint64(rng.Intn(int(thin.NumBlocks())))
		switch rng.Intn(4) {
		case 0, 1:
			rng.Read(buf)
			if err := thin.WriteBlock(vb, buf); err != nil {
				t.Fatal(err)
			}
		case 2:
			n := rng.Intn(8) + 1
			if vb+uint64(n) > thin.NumBlocks() {
				vb = thin.NumBlocks() - uint64(n)
			}
			big := make([]byte, n*blockSize)
			rng.Read(big)
			if err := storage.WriteBlocks(thin, vb, big); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := thin.Discard(vb); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIncrementalCommitImageEquivalence drives two identical pools through
// the same workload, committing one incrementally and the other with full
// rewrites, and requires byte-identical metadata images at every commit
// point — the on-disk format must not betray which path wrote it.
func TestIncrementalCommitImageEquivalence(t *testing.T) {
	build := func() (*Pool, *storage.MemDevice) {
		data := storage.NewMemDevice(blockSize, 2048)
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(2048, blockSize))
		p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(21), DummySrc: prng.NewSource(22)})
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		if err := p.CreateThin(1, 512); err != nil {
			t.Fatal(err)
		}
		if err := p.CreateThin(7, 128); err != nil {
			t.Fatal(err)
		}
		return p, meta
	}
	inc, incMeta := build()
	full, fullMeta := build()

	for round := int64(0); round < 5; round++ {
		driveMutations(t, inc, 100+round)
		driveMutations(t, full, 100+round)
		if err := inc.Commit(); err != nil {
			t.Fatalf("incremental commit: %v", err)
		}
		if err := commitFull(full); err != nil {
			t.Fatalf("full commit: %v", err)
		}
		if !bytes.Equal(metaImage(t, incMeta), metaImage(t, fullMeta)) {
			t.Fatalf("round %d: incremental and full images differ", round)
		}
	}

	// A commit with no changes only advances the transaction id.
	beforeTx := inc.TransactionID()
	if err := inc.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := commitFull(full); err != nil {
		t.Fatal(err)
	}
	if inc.TransactionID() != beforeTx+1 {
		t.Fatalf("txID = %d, want %d", inc.TransactionID(), beforeTx+1)
	}
	if !bytes.Equal(metaImage(t, incMeta), metaImage(t, fullMeta)) {
		t.Fatal("no-op commit images differ")
	}

	// Deleting a thin forces the structural path; images must still agree.
	for _, p := range []*Pool{inc, full} {
		if err := p.DeleteThin(7); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := commitFull(full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metaImage(t, incMeta), metaImage(t, fullMeta)) {
		t.Fatal("post-delete images differ")
	}
}

// TestIncrementalCommitRoundTrip checks that OpenPool loads a pool written
// by a mix of incremental commits and reproduces its exact state.
func TestIncrementalCommitRoundTrip(t *testing.T) {
	data := storage.NewMemDevice(blockSize, 2048)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(2048, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(31)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 512); err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 3; round++ {
		driveMutations(t, p, 200+round)
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	vbs, err := p.MappedVBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := p.PhysicalBlocks(1)
	if err != nil {
		t.Fatal(err)
	}

	re, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(32)})
	if err != nil {
		t.Fatalf("OpenPool after incremental commits: %v", err)
	}
	if re.TransactionID() != p.TransactionID() {
		t.Fatalf("txID = %d, want %d", re.TransactionID(), p.TransactionID())
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatalf("reloaded pool integrity: %v", err)
	}
	reVbs, err := re.MappedVBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	rePbs, err := re.PhysicalBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reVbs) != len(vbs) || len(rePbs) != len(pbs) {
		t.Fatalf("reloaded mapping sizes %d/%d, want %d/%d", len(reVbs), len(rePbs), len(vbs), len(pbs))
	}
	for i := range vbs {
		if reVbs[i] != vbs[i] || rePbs[i] != pbs[i] {
			t.Fatalf("mapping entry %d differs after reload", i)
		}
	}
	// A reopened pool's arena primes straight from the loaded image, so it
	// commits incrementally from the first transaction; the first commit
	// still rewrites the (unknown) inactive slot in full via its pending
	// set. Both must keep round-tripping.
	thin, err := re.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, 4*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 8, make([]byte, 4*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(33)})
	if err != nil {
		t.Fatal(err)
	}
	if err := re2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCommitWriteDelta verifies the point of the exercise: on a
// pool with thousands of mapped blocks, a commit after touching a handful
// of blocks writes only a handful of metadata blocks, while a full commit
// rewrites the whole image.
func TestIncrementalCommitWriteDelta(t *testing.T) {
	const dataBlocks = 16384
	data := storage.NewMemDevice(blockSize, dataBlocks)
	metaStats := storage.NewStatsDevice(storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize)))
	p, err := CreatePool(data, metaStats, Options{Entropy: prng.NewSeededEntropy(41)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, dataBlocks); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	// Map 10k blocks and commit them.
	if err := storage.WriteBlocks(thin, 0, make([]byte, 10000*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	metaStats.ResetStats()
	if err := commitFull(p); err != nil {
		t.Fatal(err)
	}
	fullWrites := metaStats.Metrics().WriteBlocks.Load()
	// Touch one already-mapped block (no metadata change) plus one fresh
	// block, then commit incrementally.
	if err := storage.WriteBlocks(thin, 10000, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	metaStats.ResetStats()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	deltaWrites := metaStats.Metrics().WriteBlocks.Load()

	if fullWrites < 100 {
		t.Fatalf("full commit wrote %d blocks; expected a large image", fullWrites)
	}
	if deltaWrites*10 > fullWrites {
		t.Fatalf("incremental commit wrote %d of %d blocks; want <10%%", deltaWrites, fullWrites)
	}

	// No-op commits: the first still carries the previous delta into the
	// other A/B slot; the second finds its target slot already identical
	// and writes exactly one block — the superblock flip.
	metaStats.ResetStats()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	firstNoop := metaStats.Metrics().WriteBlocks.Load()
	if firstNoop*10 > fullWrites {
		t.Fatalf("first no-op commit wrote %d of %d blocks; want <10%%", firstNoop, fullWrites)
	}
	metaStats.ResetStats()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := metaStats.Metrics().WriteBlocks.Load(); got != 1 {
		t.Fatalf("steady-state no-op commit wrote %d blocks, want 1", got)
	}
}
