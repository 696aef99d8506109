//go:build amd64 && !purego

package xcrypto

import "encoding/binary"

// xtsKernel holds what the assembly kernels (xts_amd64.s) read: the data
// key's round keys for both directions and the tweak key's for encryption.
// The standard library does not export its schedule, so NewXTS expands the
// keys a second time here.
type xtsKernel struct {
	enc, dec, tweakEnc [15 * 16]byte
	rounds             int
	// wide selects the 16-block VAES kernel ahead of the 8-block AES-NI
	// one. NewXTS sets it from the CPU (cpuFeatures.wide); tests clear it
	// to force the AES-NI path on a VAES host.
	wide bool
}

// newXTSKernel expands the data and tweak keys for the kernels, or returns
// nil when the CPU has no AES instructions and the Go loop is the only
// path.
func newXTSKernel(dataKey, tweakKey []byte) *xtsKernel {
	f := readCPU()
	if !f.aes {
		return nil
	}
	k := &xtsKernel{rounds: len(dataKey)/4 + 6, wide: f.wide()}
	expandKey(&k.enc, dataKey)
	xtsInvKeys(&k.dec, &k.enc, k.rounds)
	expandKey(&k.tweakEnc, tweakKey)
	return k
}

// tweak sets *t to the first tweak of sector: the sector number encrypted
// under the tweak key. Unlike cipher.Block.Encrypt, the call leaves t on
// the caller's stack.
func (k *xtsKernel) tweak(t *[16]byte, sector uint64) {
	*t = [16]byte{}
	binary.LittleEndian.PutUint64(t[:8], sector)
	aesEncBlock(&k.tweakEnc, k.rounds, t)
}

// groups runs every whole group of sixteen (wide) and then of eight blocks
// of src through the kernels into dst and returns the bytes it covered;
// tweak comes back multiplied on so the caller's loop continues with the
// tail (fewer than eight blocks).
func (k *xtsKernel) groups(tweak *[16]byte, dst, src []byte, encrypt bool) int {
	done := 0
	if n := len(src) / 256; n > 0 && k.wide {
		// The 16-block kernel takes t0..t7 and derives the rest.
		var tw [128]byte
		t0 := binary.LittleEndian.Uint64(tweak[:8])
		t1 := binary.LittleEndian.Uint64(tweak[8:])
		for i := 0; i < 128; i += 16 {
			binary.LittleEndian.PutUint64(tw[i:], t0)
			binary.LittleEndian.PutUint64(tw[i+8:], t1)
			t0, t1 = gfMulAlpha(t0, t1)
		}
		if encrypt {
			xtsEnc16(&k.enc, k.rounds, &tw, &dst[0], &src[0], n)
		} else {
			xtsDec16(&k.dec, k.rounds, &tw, &dst[0], &src[0], n)
		}
		*tweak = [16]byte(tw[:16])
		done = n * 256
	}
	if n := (len(src) - done) / 128; n > 0 {
		if encrypt {
			xtsEnc8(&k.enc, k.rounds, tweak, &dst[done], &src[done], n)
		} else {
			xtsDec8(&k.dec, k.rounds, tweak, &dst[done], &src[done], n)
		}
		done += n * 128
	}
	return done
}

// cpuFeatures is what kernel selection reads from CPUID and XGETBV.
type cpuFeatures struct {
	aes     bool   // CPUID.1:ECX.AES
	osxsave bool   // CPUID.1:ECX.OSXSAVE: XGETBV may run
	xcr0    uint32 // XGETBV(0), low half: the register state the OS saves
	// CPUID.7.0: EBX.AVX512F, EBX.AVX512BW, ECX.VAES, ECX.VPCLMULQDQ.
	avx512f, avx512bw, vaes, vpclmulqdq bool
}

// xcr0ZMM is the XCR0 state the 16-block kernel needs the OS to save: SSE
// and AVX (bits 1-2), the opmask registers and all 32 ZMM registers in full
// (bits 5-7).
const xcr0ZMM = 0xe6

// readCPU reads the features of the CPU this process runs on.
func readCPU() cpuFeatures {
	_, _, c1, _ := cpuid(1, 0)
	_, b7, c7, _ := cpuid(7, 0)
	f := cpuFeatures{
		aes:        c1&(1<<25) != 0,
		osxsave:    c1&(1<<27) != 0,
		avx512f:    b7&(1<<16) != 0,
		avx512bw:   b7&(1<<30) != 0,
		vaes:       c7&(1<<9) != 0,
		vpclmulqdq: c7&(1<<10) != 0,
	}
	if f.osxsave {
		f.xcr0 = xgetbv()
	}
	return f
}

// wide reports whether the 16-block kernel may run: the instructions exist
// and the OS saves the ZMM state they use. A CPU can report AVX-512 and
// VAES to a kernel that does not enable the state, and then every ZMM
// instruction faults.
func (f cpuFeatures) wide() bool {
	return f.aes && f.osxsave && f.xcr0&xcr0ZMM == xcr0ZMM &&
		f.avx512f && f.avx512bw && f.vaes && f.vpclmulqdq
}

// expandKey is the FIPS-197 key expansion for a 16- or 32-byte key, byte
// for byte in the order AESENC reads round keys. It runs twice per volume
// open, so the S-box is computed on the stack rather than kept as a table.
func expandKey(rk *[15 * 16]byte, key []byte) {
	sbox := aesSbox()
	nk := len(key)
	copy(rk[:], key)
	rcon := byte(1)
	for i := nk; i < 4*(nk+28); i += 4 {
		t := [4]byte(rk[i-4 : i])
		switch {
		case i%nk == 0:
			t = [4]byte{sbox[t[1]] ^ rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			rcon = rcon<<1 ^ rcon>>7*0x1b
		case nk == 32 && i%nk == 16:
			t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
		}
		for j, b := range t {
			rk[i+j] = rk[i-nk+j] ^ b
		}
	}
}

// aesSbox computes the AES S-box: the multiplicative inverse in GF(2^8)
// (walked as powers of the generator 3 and of its inverse) followed by the
// affine transform.
func aesSbox() (s [256]byte) {
	p, q := byte(1), byte(1)
	for {
		p ^= p<<1 ^ p>>7*0x1b // p *= 3
		q ^= q << 1           // q /= 3
		q ^= q << 2
		q ^= q << 4
		q ^= q >> 7 * 0x09
		s[p] = q ^ (q<<1 | q>>7) ^ (q<<2 | q>>6) ^ (q<<3 | q>>5) ^ (q<<4 | q>>4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63
	return s
}

// cpuid executes CPUID for leaf and subleaf.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of XCR0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv() uint32

// aesEncBlock encrypts *b in place under the round keys rk.
//
//go:noescape
func aesEncBlock(rk *[15 * 16]byte, rounds int, b *[16]byte)

// xtsInvKeys derives the equivalent-inverse-cipher round keys AESDEC wants
// from the encryption schedule: reversed, the inner ones through AESIMC.
//
//go:noescape
func xtsInvKeys(dec, enc *[15 * 16]byte, rounds int)

// xtsEnc8 encrypts groups × 8 blocks from src to dst (equal or disjoint)
// under the round keys rk, starting at *tweak and leaving the next unused
// tweak there.
//
//go:noescape
func xtsEnc8(rk *[15 * 16]byte, rounds int, tweak *[16]byte, dst, src *byte, groups int)

// xtsDec8 is xtsEnc8's inverse; rk is the xtsInvKeys schedule.
//
//go:noescape
func xtsDec8(rk *[15 * 16]byte, rounds int, tweak *[16]byte, dst, src *byte, groups int)

// xtsEnc16 encrypts groups × 16 blocks from src to dst (equal or disjoint)
// with the VAES kernel. tweaks holds the first eight tweaks; the next
// unused tweak comes back in its first 16 bytes.
//
//go:noescape
func xtsEnc16(rk *[15 * 16]byte, rounds int, tweaks *[128]byte, dst, src *byte, groups int)

// xtsDec16 is xtsEnc16's inverse; rk is the xtsInvKeys schedule.
//
//go:noescape
func xtsDec16(rk *[15 * 16]byte, rounds int, tweaks *[128]byte, dst, src *byte, groups int)
