package thinp

import (
	"errors"
	"testing"

	"mobiceal/internal/crc"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// fuzzDataBlocks sizes the pool FuzzOpenPool opens: small enough that a
// whole metadata device is a fuzz input of a few KiB.
const fuzzDataBlocks = 64

// fuzzMetaBlocks is the metadata device FuzzOpenPool opens.
var fuzzMetaBlocks = MetaBlocksNeeded(fuzzDataBlocks, blockSize)

// openPoolSeeds returns metadata-device images for FuzzOpenPool's corpus:
// a freshly formatted pool with two thins and two commits behind it, so
// both slots hold an image, and every crash image of a third commit.
func openPoolSeeds(t testing.TB) [][]byte {
	data := storage.NewMemDevice(blockSize, fuzzDataBlocks)
	meta := storage.NewCrashDevice(storage.NewMemDevice(blockSize, fuzzMetaBlocks))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(5)})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*blockSize)
	for id := 1; id <= 2; id++ {
		if err := p.CreateThin(id, 32); err != nil {
			t.Fatal(err)
		}
		thin, err := p.Thin(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteBlocks(thin, uint64(4*id), buf); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := meta.StartRecording(); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 20, buf); err != nil {
		t.Fatal(err)
	}
	if err := thin.Discard(5); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for n := 0; n <= meta.PersistedWrites(); n++ {
		img, err := meta.CrashImage(n)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := storage.ReadFull(img, 0, fuzzMetaBlocks)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	return seeds
}

// reseal rewrites, in each superblock that carries the pool's magic, the
// image checksum over the image length it names (when that length fits its
// slot) and then the superblock's own checksum. A crash cannot produce a
// mutated image under valid checksums, but anyone who can write the
// metadata device can, and it is what lets the fuzzer reach the image
// parser behind the CRCs.
func reseal(raw []byte) {
	slotBlocks := (fuzzMetaBlocks - superSlots) / 2
	for slot := 0; slot < superSlots; slot++ {
		sb := raw[slot*blockSize : (slot+1)*blockSize]
		if getUint64(sb) != superMagic {
			continue
		}
		if n := getUint64(sb[superImgLenOff:]); n%blockSize == 0 && n/blockSize <= slotBlocks {
			base := (superSlots + uint64(slot)*slotBlocks) * blockSize
			putUint64(sb[superImgSumOff:], crc.Checksum(raw[base:base+n]))
		}
		putUint64(sb[superSelfSumOff:], crc.Checksum(sb[:superSelfSumOff]))
	}
}

// FuzzOpenPool feeds arbitrary metadata-device bytes — both superblocks
// and both slot images — to OpenPool. The oracle: OpenPool returns an
// error, or a pool that passes CheckConsistency and CheckIntegrity. It
// must never panic, hang or allocate beyond what the devices bound. With
// resealed set, every superblock's checksums are recomputed over the
// mutated bytes first, so mutations reach the image parser.
func FuzzOpenPool(f *testing.F) {
	for _, s := range openPoolSeeds(f) {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, in []byte, resealed bool) {
		raw := make([]byte, fuzzMetaBlocks*blockSize)
		copy(raw, in)
		if resealed {
			reseal(raw)
		}
		meta := storage.NewMemDevice(blockSize, fuzzMetaBlocks)
		if err := storage.WriteBlocks(meta, 0, raw); err != nil {
			t.Fatal(err)
		}
		data := storage.NewMemDevice(blockSize, fuzzDataBlocks)
		p, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(1)})
		if err != nil {
			return
		}
		if err := p.CheckConsistency(); err != nil {
			t.Fatalf("opened pool fails CheckConsistency: %v", err)
		}
		if err := p.CheckIntegrity(); err != nil {
			t.Fatalf("opened pool fails CheckIntegrity: %v", err)
		}
	})
}

// TestOpenPoolRejectsForgedImages: the forgeries FuzzOpenPool's oracle is
// about, each under valid checksums, must fail OpenPool with
// ErrCorruptMeta — a thin count or virtual size that would size memory
// beyond the devices, and mappings CheckIntegrity rejects. CreateThin
// refuses the same virtual sizes, so no pool commits an image it cannot
// reopen.
func TestOpenPoolRejectsForgedImages(t *testing.T) {
	data := storage.NewMemDevice(blockSize, fuzzDataBlocks)
	meta := storage.NewMemDevice(blockSize, fuzzMetaBlocks)
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, (fuzzDataBlocks+1)*maxOvercommit); err == nil {
		t.Fatal("CreateThin accepted a thin past the overcommit limit")
	}
	if err := p.CreateThin(1, fuzzDataBlocks*maxOvercommit); err != nil {
		t.Fatal(err)
	}

	good := openPoolSeeds(t)[0]
	bmLen := int((fuzzDataBlocks + 63) / 64 * 8)
	// The newest slot's image: its first thin segment follows the bitmap.
	active := 0
	if getUint64(good[blockSize+superTxOff:]) > getUint64(good[superTxOff:]) {
		active = 1
	}
	slotBlocks := int((fuzzMetaBlocks - superSlots) / 2)
	img := (superSlots + active*slotBlocks) * blockSize
	seg := img + bmLen
	for _, tc := range []struct {
		name  string
		forge func(raw []byte)
	}{
		{"thin count", func(raw []byte) { putUint32(raw[active*blockSize+superCountOff:], 0xffffffff) }},
		{"virtual size", func(raw []byte) { putUint64(raw[seg+4:], 1<<62) }},
		{"block past the device", func(raw []byte) { putUint64(raw[seg+thinHeaderLen+8:], fuzzDataBlocks) }},
		{"free block", func(raw []byte) { putUint64(raw[img:], 0) }},
		{"block owned twice", func(raw []byte) {
			first := getUint64(raw[seg+thinHeaderLen+8:])
			putUint64(raw[seg+thinHeaderLen+24:], first)
		}},
	} {
		raw := append([]byte(nil), good...)
		tc.forge(raw)
		reseal(raw)
		meta := storage.NewMemDevice(blockSize, fuzzMetaBlocks)
		if err := storage.WriteBlocks(meta, 0, raw); err != nil {
			t.Fatal(err)
		}
		// Both slots must fail for OpenPool to fail: forge the other one
		// away.
		other := 1 - active
		putUint64(raw[other*blockSize:], 0)
		if err := meta.WriteBlock(uint64(other), raw[other*blockSize:(other+1)*blockSize]); err != nil {
			t.Fatal(err)
		}
		data := storage.NewMemDevice(blockSize, fuzzDataBlocks)
		if _, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(1)}); !errors.Is(err, ErrCorruptMeta) {
			t.Errorf("%s: OpenPool err = %v, want ErrCorruptMeta", tc.name, err)
		}
	}
}
