package dm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

func testCrypt(t *testing.T, blocks uint64) (*Crypt, *storage.MemDevice) {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	cipher, err := xcrypto.NewXTS(key)
	if err != nil {
		t.Fatalf("NewXTS: %v", err)
	}
	inner := storage.NewMemDevice(512, blocks)
	return NewCrypt(inner, cipher), inner
}

// TestCryptRangeMatchesBlockwise checks that vectored and per-block crypt
// I/O produce identical plaintext and ciphertext in every combination.
func TestCryptRangeMatchesBlockwise(t *testing.T) {
	const blocks = 32
	c, inner := testCrypt(t, blocks)
	rng := rand.New(rand.NewSource(9))

	// Vectored write, per-block read back.
	data := make([]byte, 8*512)
	rng.Read(data)
	if err := storage.WriteBlocks(c, 3, data); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	for i := 0; i < 8; i++ {
		got := make([]byte, 512)
		if err := c.ReadBlock(uint64(3+i), got); err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
		if !bytes.Equal(got, data[i*512:(i+1)*512]) {
			t.Fatalf("block %d: per-block read diverges from vectored write", 3+i)
		}
	}
	// Per-block write, vectored read back.
	rng.Read(data)
	for i := 0; i < 8; i++ {
		if err := c.WriteBlock(uint64(12+i), data[i*512:(i+1)*512]); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	}
	got := make([]byte, 8*512)
	if err := storage.ReadBlocks(c, 12, got); err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectored read diverges from per-block writes")
	}
	// The ciphertext on the inner device must differ from the plaintext
	// and decrypt per-sector — i.e. the vectored path used the same sector
	// numbering as the per-block path.
	ct := make([]byte, 512)
	if err := inner.ReadBlock(3, ct); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, data[:512]) {
		t.Fatal("inner device holds plaintext")
	}
	// The caller's buffer must never be mutated by WriteBlocks.
	orig := make([]byte, 4*512)
	rng.Read(orig)
	cp := append([]byte(nil), orig...)
	if err := storage.WriteBlocks(c, 20, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, cp) {
		t.Fatal("WriteBlocks mutated the caller's buffer")
	}
}

func TestCryptRangeRejectsMisalignedBuffers(t *testing.T) {
	c, _ := testCrypt(t, 8)
	if err := storage.WriteBlocks(c, 0, make([]byte, 513)); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned write err = %v, want ErrBadBuffer", err)
	}
	if err := storage.ReadBlocks(c, 0, make([]byte, 1023)); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("misaligned read err = %v, want ErrBadBuffer", err)
	}
}

// vecOver carves buf into a random whole-block segmentation.
func vecOver(src *prng.Source, bs int, buf []byte) storage.BlockVec {
	var segs [][]byte
	n := len(buf) / bs
	for off := 0; off < n; {
		seg := 1 + int(src.Uint64n(4))
		if seg > n-off {
			seg = n - off
		}
		segs = append(segs, buf[off*bs:(off+seg)*bs])
		off += seg
	}
	return storage.Vec(bs, segs...)
}

// TestCryptVecFlatEquivalence drives dm-crypt with random vec writes and
// reads and asserts byte equivalence with the flat range path: the
// ciphertext on the inner device must be identical (same sector IVs
// regardless of segmentation) and vec reads must round-trip, including
// across a flat/vec boundary (flat write, vec read and vice versa).
func TestCryptVecFlatEquivalence(t *testing.T) {
	const bs, blocks = 512, 128
	src := prng.NewSource(31337)
	key := make([]byte, 64)
	if _, err := src.Read(key); err != nil {
		t.Fatal(err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		t.Fatal(err)
	}
	innerVec := storage.NewMemDevice(bs, blocks)
	innerFlat := storage.NewMemDevice(bs, blocks)
	cVec := NewCrypt(innerVec, cipher)
	cFlat := NewCrypt(innerFlat, cipher)

	for r := 0; r < 200; r++ {
		start := src.Uint64n(blocks)
		n := 1 + src.Uint64n(blocks-start)
		if n > 24 {
			n = 24
		}
		buf := make([]byte, int(n)*bs)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteBlocksVec(cVec, start, vecOver(src, bs, buf)); err != nil {
			t.Fatalf("round %d: vec write: %v", r, err)
		}
		if err := storage.WriteBlocks(cFlat, start, buf); err != nil {
			t.Fatal(err)
		}
		// Plaintext reads agree through both paths.
		got := make([]byte, len(buf))
		if err := storage.ReadBlocksVec(cVec, start, vecOver(src, bs, got)); err != nil {
			t.Fatalf("round %d: vec read: %v", r, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("round %d: vec read round-trip mismatch", r)
		}
		flatGot := make([]byte, len(buf))
		if err := storage.ReadBlocks(cFlat, start, flatGot); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flatGot, buf) {
			t.Fatalf("round %d: flat read round-trip mismatch", r)
		}
	}
	// The two inner devices must hold identical ciphertext: segmentation
	// must not leak into sector numbering.
	a := make([]byte, blocks*bs)
	b := make([]byte, blocks*bs)
	if err := storage.ReadBlocks(innerVec, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := storage.ReadBlocks(innerFlat, 0, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("ciphertext differs between vec and flat write paths")
	}
}
