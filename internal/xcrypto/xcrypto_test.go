package xcrypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// RFC 6070 test vectors for PBKDF2-HMAC-SHA1.
func TestPBKDF2SHA1KnownVectors(t *testing.T) {
	tests := []struct {
		password string
		salt     string
		iter     int
		keyLen   int
		want     string
	}{
		{"password", "salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"},
		{"password", "salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"},
		{"password", "salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"},
		{
			"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt",
			4096, 25, "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038",
		},
	}
	for _, tt := range tests {
		got := PBKDF2SHA1([]byte(tt.password), []byte(tt.salt), tt.iter, tt.keyLen)
		if hex.EncodeToString(got) != tt.want {
			t.Errorf("PBKDF2SHA1(%q,%q,%d,%d) = %x, want %s",
				tt.password, tt.salt, tt.iter, tt.keyLen, got, tt.want)
		}
	}
}

// PBKDF2-HMAC-SHA256 vector (from the RFC 6070 suite recomputed with
// SHA-256, widely published).
func TestPBKDF2SHA256KnownVector(t *testing.T) {
	got := PBKDF2Key([]byte("password"), []byte("salt"), 1, 32, sha256.New)
	want := "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"
	if hex.EncodeToString(got) != want {
		t.Errorf("PBKDF2 HMAC-SHA256 = %x, want %s", got, want)
	}
}

func TestPBKDF2LongOutput(t *testing.T) {
	// keyLen > hash size exercises the multi-block path.
	got := PBKDF2SHA1([]byte("pw"), []byte("na"), 10, 48)
	if len(got) != 48 {
		t.Fatalf("len = %d, want 48", len(got))
	}
	// First 20 bytes must be independent of requesting more output.
	first := PBKDF2SHA1([]byte("pw"), []byte("na"), 10, 20)
	if !bytes.Equal(got[:20], first) {
		t.Fatal("prefix changed when requesting longer output")
	}
}

// IEEE 1619 / NIST XTS-AES-128 test vector (XTSGenAES128 count 1).
func TestXTSKnownVector(t *testing.T) {
	key, _ := hex.DecodeString(
		"0000000000000000000000000000000000000000000000000000000000000000")
	x, err := NewXTS(key)
	if err != nil {
		t.Fatalf("NewXTS: %v", err)
	}
	plain := make([]byte, 32)
	got := make([]byte, 32)
	if err := x.EncryptSector(0, got, plain); err != nil {
		t.Fatalf("EncryptSector: %v", err)
	}
	want := "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e" +
		"c676d4c2fcbf4e0a7222100eee5c05d0"
	// NIST vector is 32 bytes; only compare that much.
	if hex.EncodeToString(got) != want[:64] {
		t.Errorf("XTS ciphertext = %x, want %s", got, want[:64])
	}
}

func TestXTSRoundtrip(t *testing.T) {
	ent := prng.NewSeededEntropy(1)
	key, err := prng.Bytes(ent, 64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewXTS(key)
	if err != nil {
		t.Fatalf("NewXTS: %v", err)
	}
	plain := make([]byte, 4096)
	if _, err := ent.Read(plain); err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, 4096)
	pt := make([]byte, 4096)
	for _, sector := range []uint64{0, 1, 1 << 40} {
		if err := x.EncryptSector(sector, ct, plain); err != nil {
			t.Fatalf("EncryptSector: %v", err)
		}
		if bytes.Equal(ct, plain) {
			t.Fatal("ciphertext equals plaintext")
		}
		if err := x.DecryptSector(sector, pt, ct); err != nil {
			t.Fatalf("DecryptSector: %v", err)
		}
		if !bytes.Equal(pt, plain) {
			t.Fatalf("sector %d: roundtrip mismatch", sector)
		}
	}
}

func TestXTSSectorsDiffer(t *testing.T) {
	key := make([]byte, 64)
	x, err := NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 64)
	a := make([]byte, 64)
	b := make([]byte, 64)
	if err := x.EncryptSector(1, a, plain); err != nil {
		t.Fatal(err)
	}
	if err := x.EncryptSector(2, b, plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("same plaintext at different sectors encrypted identically")
	}
}

func TestXTSInPlace(t *testing.T) {
	key := make([]byte, 32)
	key[0] = 1
	x, err := NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i)
	}
	orig := append([]byte(nil), data...)
	if err := x.EncryptSector(7, data, data); err != nil {
		t.Fatalf("in-place encrypt: %v", err)
	}
	if bytes.Equal(data, orig) {
		t.Fatal("in-place encryption did not change buffer")
	}
	if err := x.DecryptSector(7, data, data); err != nil {
		t.Fatalf("in-place decrypt: %v", err)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("in-place roundtrip mismatch")
	}
}

func TestXTSRejectsBadSizes(t *testing.T) {
	if _, err := NewXTS(make([]byte, 48)); !errors.Is(err, ErrKeySize) {
		t.Fatalf("48-byte key err = %v, want ErrKeySize", err)
	}
	x, err := NewXTS(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := x.EncryptSector(0, make([]byte, 15), make([]byte, 15)); !errors.Is(err, ErrDataSize) {
		t.Fatalf("15-byte unit err = %v, want ErrDataSize", err)
	}
	if err := x.EncryptSector(0, make([]byte, 0), make([]byte, 0)); !errors.Is(err, ErrDataSize) {
		t.Fatalf("empty unit err = %v, want ErrDataSize", err)
	}
	if err := x.EncryptSector(0, make([]byte, 16), make([]byte, 32)); !errors.Is(err, ErrBufferMismatch) {
		t.Fatalf("mismatched buffers err = %v, want ErrBufferMismatch", err)
	}
}

func TestGFMulAlphaCarry(t *testing.T) {
	// Multiplying a tweak with the top bit set must apply the reduction.
	// Byte 15 bit 7 is the msb of the high word in the little-endian
	// convention.
	t0, t1 := gfMulAlpha(0, 0x8000000000000000)
	if t0 != 0x87 {
		t.Fatalf("reduction word = %#x, want 0x87", t0)
	}
	if t1 != 0 {
		t.Fatalf("high word = %#x, want 0", t1)
	}
	// Without the top bit it is a plain shift, carrying the low word's msb
	// into the high word.
	t0, t1 = gfMulAlpha(0x01, 0)
	if t0 != 0x02 || t1 != 0 {
		t.Fatalf("shift result = %#x,%#x, want 0x02,0", t0, t1)
	}
	t0, t1 = gfMulAlpha(0x8000000000000000, 0)
	if t0 != 0 || t1 != 1 {
		t.Fatalf("cross-word carry = %#x,%#x, want 0,1", t0, t1)
	}
}

func TestFillNoiseDistinctAndNonZero(t *testing.T) {
	ent := prng.NewSeededEntropy(3)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	if err := FillNoise(ent, a); err != nil {
		t.Fatal(err)
	}
	if err := FillNoise(ent, b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two noise blocks identical")
	}
	var or byte
	for _, c := range a {
		or |= c
	}
	if or == 0 {
		t.Fatal("noise block all zero")
	}
}

func TestFooterRoundtripThroughDevice(t *testing.T) {
	ent := prng.NewSeededEntropy(5)
	f, master, err := NewFooter(ent, "decoy-pass", 9, 100)
	if err != nil {
		t.Fatalf("NewFooter: %v", err)
	}
	dev := storage.NewMemDevice(4096, 64)
	if err := WriteFooter(dev, f); err != nil {
		t.Fatalf("WriteFooter: %v", err)
	}
	got, err := ReadFooter(dev)
	if err != nil {
		t.Fatalf("ReadFooter: %v", err)
	}
	if got.NumVolumes != 9 || got.KDFIter != 100 || got.CryptoType != "aes-xts-plain64" {
		t.Fatalf("footer fields = %+v", got)
	}
	if got.KDFSalt != f.KDFSalt || got.PDESalt != f.PDESalt || got.WrappedKey != f.WrappedKey {
		t.Fatal("footer byte fields corrupted")
	}
	key, err := got.DeriveKey("decoy-pass")
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	if !bytes.Equal(key, master) {
		t.Fatal("decoy password did not recover master key")
	}
}

func TestFooterWrongPasswordYieldsDifferentDeterministicKey(t *testing.T) {
	ent := prng.NewSeededEntropy(7)
	f, master, err := NewFooter(ent, "decoy", 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := f.DeriveKey("hidden-password")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, master) {
		t.Fatal("wrong password recovered master key")
	}
	k2, err := f.DeriveKey("hidden-password")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1, k2) {
		t.Fatal("hidden key derivation not deterministic")
	}
	k3, err := f.DeriveKey("other-password")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k3) {
		t.Fatal("different passwords derived the same key")
	}
	if len(k1) != MasterKeySize {
		t.Fatalf("derived key length %d, want %d", len(k1), MasterKeySize)
	}
}

func TestFooterHiddenIndexRangeAndDeterminism(t *testing.T) {
	ent := prng.NewSeededEntropy(9)
	f, _, err := NewFooter(ent, "decoy", 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		pwd := string(rune('a'+i%26)) + "pw" + string(rune('0'+i%10))
		k := f.HiddenIndex(pwd)
		if k < 2 || k > 10 {
			t.Fatalf("HiddenIndex(%q) = %d out of [2,10]", pwd, k)
		}
		if k2 := f.HiddenIndex(pwd); k2 != k {
			t.Fatalf("HiddenIndex not deterministic: %d then %d", k, k2)
		}
		seen[k] = true
	}
	if len(seen) < 5 {
		t.Fatalf("hidden indexes poorly distributed: only %d distinct", len(seen))
	}
}

func TestFooterHiddenIndexDegenerate(t *testing.T) {
	ent := prng.NewSeededEntropy(11)
	f, _, err := NewFooter(ent, "d", 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.HiddenIndex("x"); got != 0 {
		t.Fatalf("HiddenIndex with 1 volume = %d, want 0", got)
	}
}

func TestUnmarshalFooterRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalFooter(make([]byte, 10)); !errors.Is(err, ErrBadFooter) {
		t.Fatalf("short region err = %v, want ErrBadFooter", err)
	}
	garbage := make([]byte, FooterSize)
	garbage[0] = 0xFF
	if _, err := UnmarshalFooter(garbage); !errors.Is(err, ErrBadFooter) {
		t.Fatalf("bad magic err = %v, want ErrBadFooter", err)
	}
}

func TestReadFooterTooSmallDevice(t *testing.T) {
	dev := storage.NewMemDevice(4096, 2) // 8 KB < 16 KB footer
	if _, err := ReadFooter(dev); !errors.Is(err, ErrFooterSpace) {
		t.Fatalf("err = %v, want ErrFooterSpace", err)
	}
	ent := prng.NewSeededEntropy(1)
	f, _, err := NewFooter(ent, "p", 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFooter(dev, f); !errors.Is(err, ErrFooterSpace) {
		t.Fatalf("err = %v, want ErrFooterSpace", err)
	}
}

func TestFooterBlocks(t *testing.T) {
	if got := FooterBlocks(4096); got != 4 {
		t.Fatalf("FooterBlocks(4096) = %d, want 4", got)
	}
	if got := FooterBlocks(512); got != 32 {
		t.Fatalf("FooterBlocks(512) = %d, want 32", got)
	}
	if got := FooterBlocks(5000); got != 4 {
		t.Fatalf("FooterBlocks(5000) = %d, want 4", got)
	}
}

// Property: XTS roundtrips for arbitrary sector numbers and contents.
func TestXTSPropertyRoundtrip(t *testing.T) {
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i * 7)
	}
	x, err := NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	f := func(sector uint64, seed int64) bool {
		src := prng.NewSource(uint64(seed))
		plain := make([]byte, 256)
		if _, err := src.Read(plain); err != nil {
			return false
		}
		ct := make([]byte, 256)
		pt := make([]byte, 256)
		if err := x.EncryptSector(sector, ct, plain); err != nil {
			return false
		}
		if err := x.DecryptSector(sector, pt, ct); err != nil {
			return false
		}
		return bytes.Equal(pt, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: footer marshal/unmarshal is the identity on all fields.
func TestFooterPropertyMarshalRoundtrip(t *testing.T) {
	f := func(seed uint64, numVol uint8, iter uint16) bool {
		ent := prng.NewSeededEntropy(seed)
		nv := int(numVol%32) + 1
		it := int(iter%500) + 1
		footer, _, err := NewFooter(ent, "pw", nv, it)
		if err != nil {
			return false
		}
		got, err := UnmarshalFooter(footer.Marshal())
		if err != nil {
			return false
		}
		return got.NumVolumes == footer.NumVolumes &&
			got.KDFIter == footer.KDFIter &&
			got.KDFSalt == footer.KDFSalt &&
			got.PDESalt == footer.PDESalt &&
			got.WrappedKey == footer.WrappedKey &&
			got.CryptoType == footer.CryptoType
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPBKDF2SHA1_2000(b *testing.B) {
	salt := make([]byte, 16)
	for i := 0; i < b.N; i++ {
		_ = PBKDF2SHA1([]byte("password"), salt, 2000, 48)
	}
}

func BenchmarkFillNoise4K(b *testing.B) {
	ent := prng.NewSeededEntropy(1)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if err := FillNoise(ent, buf); err != nil {
			b.Fatal(err)
		}
	}
}
