package thinp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// recordingAllocator is a RandomAllocator that logs every block it hands
// out, in order.
type recordingAllocator struct {
	*RandomAllocator
	picks []uint64
}

func (a *recordingAllocator) PickFree(bm *Bitmap) (uint64, error) {
	pb, err := a.RandomAllocator.PickFree(bm)
	if err == nil {
		a.picks = append(a.picks, pb)
	}
	return pb, err
}

// placementRun drives the fixed serial workload of
// TestAllocatorPlacementPinned: a public thin, a hidden thin and a dummy
// thin under an every-3rd-provision dummy policy; single- and multi-block
// writes, discards and commits; a reopen halfway; a final commit. wrap, when
// set, replaces each pool's allocator. It returns the SHA-256 of the data
// and metadata devices.
func placementRun(t *testing.T, wrap func(*RandomAllocator) Allocator) (dataSum, metaSum string) {
	t.Helper()
	const (
		dataBlocks = 8192
		public     = 1
		hidden     = 2
		dummy      = 3
		ops        = 3000
	)
	virt := map[int]uint64{public: 3072, hidden: 2048, dummy: 4096}
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	opts := func(seed uint64) Options {
		var a Allocator = NewRandomAllocator(prng.NewSource(seed))
		if wrap != nil {
			a = wrap(a.(*RandomAllocator))
		}
		return Options{
			Allocator: a,
			Entropy:   prng.NewSeededEntropy(seed + 1),
			DummySrc:  prng.NewSource(seed + 2),
			Policy:    &everyNthPolicy{every: 3, target: dummy, count: 2},
		}
	}
	p, err := CreatePool(data, meta, opts(11))
	if err != nil {
		t.Fatalf("CreatePool: %v", err)
	}
	for _, id := range []int{public, hidden, dummy} {
		if err := p.CreateThin(id, virt[id]); err != nil {
			t.Fatalf("CreateThin(%d): %v", id, err)
		}
	}

	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, 4*blockSize)
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			if err := p.Commit(); err != nil {
				t.Fatalf("op %d: commit before reopen: %v", i, err)
			}
			if p, err = OpenPool(data, meta, opts(21)); err != nil {
				t.Fatalf("op %d: OpenPool: %v", i, err)
			}
		}
		id := public
		if rng.Intn(3) == 0 {
			id = hidden
		}
		th, err := p.Thin(id)
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(1 + rng.Intn(4))
		vb := uint64(rng.Int63n(int64(virt[id] - n)))
		switch k := rng.Intn(16); {
		case k < 11:
			rng.Read(buf[:n*blockSize])
			err = storage.WriteBlocks(th, vb, buf[:n*blockSize])
		case k < 15:
			err = storage.Discard(th, vb, n)
		default:
			err = p.Commit()
		}
		if err != nil {
			t.Fatalf("op %d (thin %d, vb %d, n %d): %v", i, id, vb, n, err)
		}
	}
	if err := p.Commit(); err != nil {
		t.Fatalf("final commit: %v", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	ds := sha256.Sum256(deviceImage(t, data))
	ms := sha256.Sum256(deviceImage(t, meta))
	return hex.EncodeToString(ds[:]), hex.EncodeToString(ms[:])
}

// TestAllocatorPlacementPinned pins the random allocator's placement to
// values captured before the allocator was last restructured: the ordered
// list of physical blocks handed out over a serial workload with fixed
// seeds, and the bytes the workload leaves on the data and metadata
// devices. The paper's allocator (Sec. V-A) draws one rank i uniformly over
// the free count and takes the i-th free block; any change to how that
// block is found — an index, a lock, a shard — must keep every placement,
// and so every image, bit for bit. The workload runs twice: through a
// recording wrapper (the pick list) and through the bare RandomAllocator
// (the production pool), which must leave the same images.
func TestAllocatorPlacementPinned(t *testing.T) {
	const (
		wantPicks   = 5808
		wantPickSum = "a67f394b417e5969a8af08740db5898ff83da96c38f90bfee8a5ca1828059e54"
		wantData    = "5fe9acb7dc17bb0f9808b05dcc9fedefd43092f548a58d8d7fa680969314c5ac"
		wantMeta    = "bbc0548ed912337451c626fce6d1cd009c31be055cc58e69ed496f5baae3bdbc"
	)
	var recs []*recordingAllocator
	dataSum, metaSum := placementRun(t, func(a *RandomAllocator) Allocator {
		r := &recordingAllocator{RandomAllocator: a}
		recs = append(recs, r)
		return r
	})
	h := sha256.New()
	var w [8]byte
	picks := 0
	for _, r := range recs {
		for _, pb := range r.picks {
			binary.LittleEndian.PutUint64(w[:], pb)
			h.Write(w[:])
		}
		picks += len(r.picks)
	}
	pickSum := hex.EncodeToString(h.Sum(nil))
	if picks < 4096 {
		t.Fatalf("workload made %d picks, want >= 4096", picks)
	}
	if picks != wantPicks || pickSum != wantPickSum {
		t.Fatalf("pick list: %d picks, sha256 %s; want %d, %s", picks, pickSum, wantPicks, wantPickSum)
	}
	if dataSum != wantData || metaSum != wantMeta {
		t.Fatalf("recorded run images: data %s meta %s; want %s, %s", dataSum, metaSum, wantData, wantMeta)
	}
	if d, m := placementRun(t, nil); d != wantData || m != wantMeta {
		t.Fatalf("production pool images: data %s meta %s; want %s, %s", d, m, wantData, wantMeta)
	}
}
