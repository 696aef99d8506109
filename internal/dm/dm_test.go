package dm

import (
	"bytes"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

const blockSize = 4096

func newXTS(t testing.TB, seed uint64) *xcrypto.XTS {
	t.Helper()
	key, err := prng.Bytes(prng.NewSeededEntropy(seed), 64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := xcrypto.NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestCryptRoundtrip(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 32)
	c := NewCrypt(raw, newXTS(t, 1))
	plain := make([]byte, blockSize)
	if _, err := prng.NewSource(9).Read(plain); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(5, plain); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	got := make([]byte, blockSize)
	if err := c.ReadBlock(5, got); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(plain, got) {
		t.Fatal("crypt roundtrip mismatch")
	}
}

func TestCryptCiphertextOnDisk(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 32)
	c := NewCrypt(raw, newXTS(t, 2))
	plain := bytes.Repeat([]byte("secret!!"), blockSize/8)
	if err := c.WriteBlock(0, plain); err != nil {
		t.Fatal(err)
	}
	onDisk := make([]byte, blockSize)
	if err := raw.ReadBlock(0, onDisk); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(onDisk, plain) {
		t.Fatal("plaintext visible on the raw device")
	}
	if bytes.Contains(onDisk, []byte("secret!!")) {
		t.Fatal("plaintext fragment visible on the raw device")
	}
}

func TestCryptDoesNotMutateCallerBuffer(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 8)
	c := NewCrypt(raw, newXTS(t, 3))
	plain := bytes.Repeat([]byte{0x42}, blockSize)
	orig := append([]byte(nil), plain...)
	if err := c.WriteBlock(1, plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, orig) {
		t.Fatal("WriteBlock mutated the caller's buffer")
	}
}

func TestCryptDifferentKeysSeeGarbage(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 8)
	cA := NewCrypt(raw, newXTS(t, 4))
	plain := bytes.Repeat([]byte{0x11}, blockSize)
	if err := cA.WriteBlock(0, plain); err != nil {
		t.Fatal(err)
	}
	cB := NewCrypt(raw, newXTS(t, 5))
	got := make([]byte, blockSize)
	if err := cB.ReadBlock(0, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, plain) {
		t.Fatal("wrong key decrypted to original plaintext")
	}
}

func TestCryptSamePlaintextDifferentBlocksDiffers(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 8)
	c := NewCrypt(raw, newXTS(t, 6))
	plain := bytes.Repeat([]byte{0x77}, blockSize)
	if err := c.WriteBlock(0, plain); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(1, plain); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, blockSize)
	b := make([]byte, blockSize)
	if err := raw.ReadBlock(0, a); err != nil {
		t.Fatal(err)
	}
	if err := raw.ReadBlock(1, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("identical ciphertext at different blocks (watermarking risk)")
	}
}

// Property: stacking crypt over the linear target (storage.SliceDevice is
// this repo's dm-linear) over a device preserves roundtrips at arbitrary
// offsets.
func TestPropertyCryptOverLinearRoundtrip(t *testing.T) {
	raw := storage.NewMemDevice(blockSize, 128)
	lin, err := storage.NewSliceDevice(raw, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCrypt(lin, newXTS(t, 10))
	f := func(idxRaw uint16, seed uint64) bool {
		idx := uint64(idxRaw) % 64
		plain := make([]byte, blockSize)
		if _, err := prng.NewSource(seed).Read(plain); err != nil {
			return false
		}
		if err := c.WriteBlock(idx, plain); err != nil {
			return false
		}
		got := make([]byte, blockSize)
		if err := c.ReadBlock(idx, got); err != nil {
			return false
		}
		return bytes.Equal(plain, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCryptWrite4K(b *testing.B) {
	raw := storage.NewMemDevice(blockSize, 1024)
	key := make([]byte, 64)
	x, err := xcrypto.NewXTS(key)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCrypt(raw, x)
	buf := make([]byte, blockSize)
	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteBlock(uint64(i)%1024, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCryptRead32K is the ledger's mem_read_32k seen at the target:
// one 8-block request, ciphertext memcpy'd from RAM and decrypted in place.
func BenchmarkCryptRead32K(b *testing.B) {
	const blocks = 8
	raw := storage.NewMemDevice(blockSize, 1024)
	key := make([]byte, 64)
	x, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCrypt(raw, x)
	buf := make([]byte, blocks*blockSize)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := storage.ReadBlocks(c, uint64(i*blocks)%1024, buf); err != nil {
			b.Fatal(err)
		}
	}
}
