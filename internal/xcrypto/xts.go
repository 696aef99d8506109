package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// XTS implements AES-XTS (IEEE Std 1619-2007), the default dm-crypt cipher
// mode on modern kernels ("aes-xts-plain64"). The tweak is the 64-bit
// sector number in little-endian, zero-padded to 128 bits, matching
// plain64.
//
// Data units must be positive multiples of 16 bytes; ciphertext stealing is
// not implemented because all callers encrypt whole 4 KB blocks.
//
// Three paths compute it. The Go loop in process is the reference and runs
// everywhere. On amd64 (without the purego build tag) assembly kernels go
// first: whole groups of sixteen blocks through the VAES kernel when the
// CPU has AVX-512, VAES and VPCLMULQDQ and the OS saves ZMM state, then
// whole groups of eight through the AES-NI kernel, and the loop only
// finishes the tail. All produce the same bytes.
type XTS struct {
	dataCipher  cipher.Block
	tweakCipher cipher.Block
	// kern is the kernels' key schedules, nil when this build or this CPU
	// has no kernel.
	kern *xtsKernel
}

var _ SectorCipher = (*XTS)(nil)

// NewXTS creates an AES-XTS cipher. The key must be 32 bytes (XTS-AES-128)
// or 64 bytes (XTS-AES-256): the first half keys the data cipher, the
// second half the tweak cipher.
func NewXTS(key []byte) (*XTS, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, fmt.Errorf("%w: XTS needs 32 or 64 bytes, got %d", ErrKeySize, len(key))
	}
	half := len(key) / 2
	dataCipher, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: XTS data cipher: %w", err)
	}
	tweakCipher, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: XTS tweak cipher: %w", err)
	}
	return &XTS{dataCipher: dataCipher, tweakCipher: tweakCipher, kern: newXTSKernel(key[:half], key[half:])}, nil
}

// NewXTSPlain64 builds the cipher dm-crypt configures as "aes-xts-plain64"
// with a 256-bit key — XTS-AES-128, the cryptsetup and Android default the
// paper's testbed runs. Longer key material (such as the 64-byte footer
// master key) contributes its first 32 bytes; the footer format keeps the
// full-width key so the stronger cipher remains one constructor away.
func NewXTSPlain64(key []byte) (*XTS, error) {
	if len(key) < 32 {
		return nil, fmt.Errorf("%w: aes-xts-plain64 needs >= 32 bytes, got %d", ErrKeySize, len(key))
	}
	return NewXTS(key[:32])
}

// EncryptSector implements SectorCipher.
func (x *XTS) EncryptSector(sector uint64, dst, src []byte) error {
	return x.process(sector, dst, src, true)
}

// DecryptSector implements SectorCipher.
func (x *XTS) DecryptSector(sector uint64, dst, src []byte) error {
	return x.process(sector, dst, src, false)
}

func (x *XTS) process(sector uint64, dst, src []byte, encrypt bool) error {
	if err := checkSectorBuffers(dst, src); err != nil {
		return err
	}
	// The kernels take every whole group of eight blocks and leave the
	// running tweak behind for the rest. They also encrypt the tweak, so
	// that it stays on the stack: through the cipher.Block interface it
	// would escape, one allocation per sector.
	var tweak [16]byte
	done := 0
	if x.kern != nil {
		x.kern.tweak(&tweak, sector)
		done = x.kern.groups(&tweak, dst, src, encrypt)
	} else {
		tweak = x.firstTweak(sector)
	}

	// The tweak is held as two little-endian words so the per-block XORs
	// and the GF(2^128) multiply run word-wide, and each 16-byte block is
	// whitened directly in dst (src and dst may be the same slice, never
	// partially overlapping) so no intermediate buffer is touched.
	t0 := binary.LittleEndian.Uint64(tweak[:8])
	t1 := binary.LittleEndian.Uint64(tweak[8:])
	for off := done; off < len(src); off += 16 {
		s := src[off : off+16 : off+16]
		d := dst[off : off+16 : off+16]
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(s[0:8])^t0)
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(s[8:16])^t1)
		if encrypt {
			x.dataCipher.Encrypt(d, d)
		} else {
			x.dataCipher.Decrypt(d, d)
		}
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(d[0:8])^t0)
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(d[8:16])^t1)
		t0, t1 = gfMulAlpha(t0, t1)
	}
	return nil
}

// firstTweak is the tweak of a sector's first block, through the standard
// library's cipher.
func (x *XTS) firstTweak(sector uint64) [16]byte {
	t := make([]byte, 16)
	binary.LittleEndian.PutUint64(t[:8], sector)
	x.tweakCipher.Encrypt(t, t)
	return [16]byte(t)
}

// gfMulAlpha multiplies the tweak by the primitive element alpha of
// GF(2^128) as specified in IEEE 1619: a left shift by one bit over the
// little-endian byte order with reduction polynomial x^128 + x^7 + x^2 +
// x + 1 (0x87). t0 holds the low 64 bits, t1 the high.
func gfMulAlpha(t0, t1 uint64) (uint64, uint64) {
	carry := t1 >> 63
	t1 = t1<<1 | t0>>63
	t0 = t0<<1 ^ carry*0x87
	return t0, t1
}
