package thinp

import (
	"bytes"
	"hash/crc64"
	"math/rand"
	"testing"

	"mobiceal/internal/crc"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestCRCBlockFolder pins the linear-algebra shortcut the commit path uses
// to seal superblocks: folding per-block CRC64 sums must reproduce
// crc64.Checksum over the concatenated image exactly, for every block size
// the pool might run with.
func TestCRCBlockFolder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bs := range []int{64, 512, 4096} {
		f := newCRCBlockFolder(bs)
		for _, nBlocks := range []int{1, 2, 3, 17} {
			data := make([]byte, bs*nBlocks)
			rng.Read(data)
			sums := make([]uint64, nBlocks)
			for b := 0; b < nBlocks; b++ {
				sums[b] = crc64.Checksum(data[b*bs:(b+1)*bs], crc.Table)
			}
			if got, want := f.fold(sums), crc64.Checksum(data, crc.Table); got != want {
				t.Fatalf("bs=%d n=%d: fold = %#x, want %#x", bs, nBlocks, got, want)
			}
		}
	}
}

// TestSlotSumsAreStdlibCRC64 reads both A/B slots raw after a run of
// splice-heavy commits (fresh vblocks at random positions, discards) and
// checks every seal against hash/crc64 itself, not the crc package the pool
// computes them with: images written before the kernel open after it, and
// the other way round.
func TestSlotSumsAreStdlibCRC64(t *testing.T) {
	const dataBlocks = 4096
	p, _, meta := newTestPool(t, dataBlocks, Options{})
	if err := p.CreateThin(1, dataBlocks); err != nil {
		t.Fatal(err)
	}
	th, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	tab := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(17))
	buf := make([]byte, blockSize)
	sb := make([]byte, blockSize)
	for round := 0; round < 24; round++ {
		for i := 0; i < 40; i++ {
			vb := uint64(rng.Intn(dataBlocks / 2))
			if i%8 == 7 {
				err = th.Discard(vb)
			} else {
				err = th.WriteBlock(vb, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			continue // slot 1 not written yet
		}
		for slot := 0; slot < superSlots; slot++ {
			if err := meta.ReadBlock(uint64(slot), sb); err != nil {
				t.Fatal(err)
			}
			if got, want := getUint64(sb[superSelfSumOff:]), crc64.Checksum(sb[:superSelfSumOff], tab); got != want {
				t.Fatalf("round %d slot %d: selfSum %#x, stdlib %#x", round, slot, got, want)
			}
			imageLen := getUint64(sb[superImgLenOff:])
			img, err := storage.ReadFull(meta, p.slotBase(slot), imageLen/blockSize)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := getUint64(sb[superImgSumOff:]), crc64.Checksum(img, tab); got != want {
				t.Fatalf("round %d slot %d: imageSum %#x, stdlib %#x over %d bytes", round, slot, got, want, len(img))
			}
		}
	}
}

// burstPolicy fires a dummy write on every third provision, targeting a
// fixed thin — deterministic, so two pools driven by the same workload see
// identical dummy traffic.
type burstPolicy struct {
	n      int
	target int
}

func (b *burstPolicy) OnProvision(int) (int, int, bool) {
	b.n++
	if b.n%3 == 0 {
		return b.target, 2, true
	}
	return 0, 0, false
}

// TestFlatCommitEquivalenceRandomized is the commit-equivalence suite for
// the flat-cost commit: two identical pools run a randomized workload of
// provisioning writes, range writes, overwrites, discards, discard ranges,
// dummy bursts and thin create/delete; one commits through the in-place
// arena path, the other with full image rewrites. After every commit the
// entire metadata devices must be byte-identical — the on-disk v2 format
// must not betray which path wrote it — and the incremental pool must
// survive reopening mid-workload with its state intact.
func TestFlatCommitEquivalenceRandomized(t *testing.T) {
	const (
		dataBlocks = 4096
		dummyThin  = 99
	)
	build := func() (*Pool, *storage.MemDevice, *storage.MemDevice) {
		data := storage.NewMemDevice(blockSize, dataBlocks)
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
		p, err := CreatePool(data, meta, Options{
			Entropy:  prng.NewSeededEntropy(77),
			DummySrc: prng.NewSource(78),
			Policy:   &burstPolicy{target: dummyThin},
		})
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		if err := p.CreateThin(dummyThin, 1024); err != nil {
			t.Fatal(err)
		}
		return p, data, meta
	}
	inc, incData, incMeta := build()
	ref, _, refMeta := build()

	// The workload script is generated once and replayed against both
	// pools so their mutation streams are identical.
	rng := rand.New(rand.NewSource(555))
	nextThin := 1
	live := []int{}

	apply := func(p *Pool, op func(p *Pool) error) {
		t.Helper()
		if err := op(p); err != nil {
			t.Fatalf("workload op: %v", err)
		}
	}
	for round := 0; round < 12; round++ {
		// Structural changes between some rounds.
		if round%3 == 0 {
			id := nextThin
			nextThin++
			live = append(live, id)
			op := func(p *Pool) error { return p.CreateThin(id, 512) }
			apply(inc, op)
			apply(ref, op)
		}
		if round%5 == 4 && len(live) > 1 {
			id := live[0]
			live = live[1:]
			op := func(p *Pool) error { return p.DeleteThin(id) }
			apply(inc, op)
			apply(ref, op)
		}
		// Data traffic on a random live thin.
		for i := 0; i < 60; i++ {
			id := live[rng.Intn(len(live))]
			vb := uint64(rng.Intn(512))
			switch rng.Intn(5) {
			case 0, 1: // single write (provision or overwrite, may fire dummies)
				buf := make([]byte, blockSize)
				rng.Read(buf)
				op := func(p *Pool) error {
					th, err := p.Thin(id)
					if err != nil {
						return err
					}
					return th.WriteBlock(vb%th.NumBlocks(), buf)
				}
				apply(inc, op)
				apply(ref, op)
			case 2: // range write
				n := rng.Intn(6) + 1
				buf := make([]byte, n*blockSize)
				rng.Read(buf)
				op := func(p *Pool) error {
					th, err := p.Thin(id)
					if err != nil {
						return err
					}
					start := vb % (th.NumBlocks() - uint64(n))
					return storage.WriteBlocks(th, start, buf)
				}
				apply(inc, op)
				apply(ref, op)
			case 3: // discard
				op := func(p *Pool) error {
					th, err := p.Thin(id)
					if err != nil {
						return err
					}
					return th.Discard(vb % th.NumBlocks())
				}
				apply(inc, op)
				apply(ref, op)
			case 4: // discard range
				n := uint64(rng.Intn(8) + 1)
				op := func(p *Pool) error {
					th, err := p.Thin(id)
					if err != nil {
						return err
					}
					start := vb % (th.NumBlocks() - n)
					return storage.Discard(th, start, n)
				}
				apply(inc, op)
				apply(ref, op)
			}
		}
		if err := inc.Commit(); err != nil {
			t.Fatalf("round %d: incremental commit: %v", round, err)
		}
		if err := commitFull(ref); err != nil {
			t.Fatalf("round %d: full commit: %v", round, err)
		}
		if !bytes.Equal(metaImage(t, incMeta), metaImage(t, refMeta)) {
			t.Fatalf("round %d: incremental and full metadata devices differ", round)
		}
		if err := inc.CheckIntegrity(); err != nil {
			t.Fatalf("round %d: integrity: %v", round, err)
		}
		// Occasionally a no-op double commit.
		if round%4 == 1 {
			if err := inc.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := commitFull(ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(metaImage(t, incMeta), metaImage(t, refMeta)) {
				t.Fatalf("round %d: no-op commit images differ", round)
			}
		}
		// Reopen the incremental pool mid-workload: the arena must prime
		// from disk and keep producing byte-identical commits. The
		// reference pool is reopened too so policy/PRNG streams stay in
		// lockstep.
		if round%4 == 3 {
			var err error
			inc, err = OpenPool(incData, incMeta, Options{
				Entropy:  prng.NewSeededEntropy(uint64(1000 + round)),
				DummySrc: prng.NewSource(uint64(2000 + round)),
				Policy:   &burstPolicy{target: dummyThin},
			})
			if err != nil {
				t.Fatalf("round %d: reopen incremental: %v", round, err)
			}
			ref, err = OpenPool(ref.DataDevice(), refMeta, Options{
				Entropy:  prng.NewSeededEntropy(uint64(1000 + round)),
				DummySrc: prng.NewSource(uint64(2000 + round)),
				Policy:   &burstPolicy{target: dummyThin},
			})
			if err != nil {
				t.Fatalf("round %d: reopen reference: %v", round, err)
			}
		}
	}

	// Final cross-check: a fresh OpenPool of the incremental device sees
	// exactly the committed state.
	re, err := OpenPool(incData, incMeta, Options{Entropy: prng.NewSeededEntropy(3)})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatalf("final integrity: %v", err)
	}
	if re.TransactionID() != inc.TransactionID() {
		t.Fatalf("reloaded tx %d, want %d", re.TransactionID(), inc.TransactionID())
	}
	for _, id := range inc.ThinIDs() {
		a, err := inc.MappedVBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.MappedVBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("thin %d: reloaded %d mappings, want %d", id, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("thin %d: mapping %d differs after reload", id, i)
			}
		}
	}
}

// TestFlatCommitArenaRegrowKeepsInPlaceSegments is the regression test for
// an arena-reallocation bug: when a splice grows the image past the
// arena's capacity, segments the splice loop leaves in place — unshifted
// clean segments between and after the spliced ones, and the kept
// header/prefix of an unshifted spliced segment — must be carried into
// the new allocation. The failure mode was silent: the zeroed bytes were
// not marked changed, so the devices stayed correct until a LATER commit
// shifted them, sealed the zeros with a valid checksum into both A/B
// slots, and made the pool unopenable.
func TestFlatCommitArenaRegrowKeepsInPlaceSegments(t *testing.T) {
	const dataBlocks = 4096
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(13)})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		if err := p.CreateThin(id, 2048); err != nil {
			t.Fatal(err)
		}
	}
	thin := func(id int) *Thin {
		th, err := p.Thin(id)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	one := make([]byte, blockSize)
	if err := storage.WriteBlocks(thin(1), 0, make([]byte, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin(2), 0, make([]byte, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin(3), 0, make([]byte, 8*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil { // structural rebuild: arena capacity == exact size
		t.Fatal(err)
	}
	// Net-zero impure delta on thin 1 (forces the splice path with an
	// early scratch cut) plus enough growth on thin 3 to outgrow the
	// arena; thin 2 is untouched and must survive in place.
	if err := thin(1).Discard(0); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin(1), 100, one); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin(3), 8, make([]byte, 600*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// A later commit that shifts thin 2 and thin 3 writes their bytes out
	// of the arena; if the regrow dropped them, this seals zeros to disk.
	if err := storage.WriteBlocks(thin(1), 200, make([]byte, 4*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(14)})
	if err != nil {
		t.Fatalf("OpenPool after arena regrowth: %v", err)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		want, err := p.MappedBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.MappedBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("thin %d: reloaded %d mappings, want %d", id, got, want)
		}
	}
}

// TestFlatCommitUpdateInPlace pins the cheapest hot path: a discard
// followed by a re-provision of the same vblock commits as an in-place
// entry patch — the steady-state commit still writes only the handful of
// meta blocks the delta touches, and the image stays identical to a full
// rewrite.
func TestFlatCommitUpdateInPlace(t *testing.T) {
	const dataBlocks = 8192
	data := storage.NewMemDevice(blockSize, dataBlocks)
	metaStats := storage.NewStatsDevice(storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize)))
	p, err := CreatePool(data, metaStats, Options{Entropy: prng.NewSeededEntropy(5)})
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
	if err := storage.WriteBlocks(thin, 0, make([]byte, 4000*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil { // drain the pending delta to the other slot
		t.Fatal(err)
	}

	one := make([]byte, blockSize)
	for i := 0; i < 8; i++ {
		vb := uint64(100 + i*17)
		if err := thin.Discard(vb); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteBlocks(thin, vb, one); err != nil {
			t.Fatal(err)
		}
		metaStats.ResetStats()
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		// One remapped entry + one or two bitmap words + carried delta
		// from the previous commit + superblock: a handful of writes, not
		// an image's worth.
		if w := metaStats.Metrics().WriteBlocks.Load(); w > 10 {
			t.Fatalf("iteration %d: update-in-place commit wrote %d meta blocks", i, w)
		}
	}
	// The in-place image still matches a from-scratch rebuild. Two no-op
	// commits first, so each A/B slot catches up on its pending delta and
	// both hold exactly the arena's bytes.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	rawInc := metaImage(t, metaStats)
	if err := commitFull(p); err != nil {
		t.Fatal(err)
	}
	if err := commitFull(p); err != nil {
		t.Fatal(err)
	}
	rawFull := metaImage(t, metaStats)
	// Superblocks carry different txIDs; compare the image slots only.
	bs := blockSize
	slot := int(p.slotBlocks())
	for b := superSlots; b < superSlots+2*slot; b++ {
		if !bytes.Equal(rawInc[b*bs:(b+1)*bs], rawFull[b*bs:(b+1)*bs]) {
			// commitFull rewrote both slots with the same image content
			// the incremental path maintained; any difference means the
			// arena diverged from the page tables.
			t.Fatalf("image slot block %d diverged between in-place and rebuilt commits", b)
		}
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
