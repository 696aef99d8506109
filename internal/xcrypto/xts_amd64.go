//go:build amd64 && !purego

package xcrypto

// xtsKernel holds what the 8-block AES-NI kernel (xts_amd64.s) reads: the
// data key's round keys for both directions. The standard library does not
// export its schedule, so NewXTS expands the key a second time here.
type xtsKernel struct {
	enc, dec [15 * 16]byte
	rounds   int
}

// newXTSKernel expands the data key for the kernel, or returns nil when
// the CPU has no AES instructions and the Go loop is the only path.
func newXTSKernel(key []byte) *xtsKernel {
	if !cpuHasAES() {
		return nil
	}
	k := &xtsKernel{rounds: len(key)/4 + 6}
	expandKey(&k.enc, key)
	xtsInvKeys(&k.dec, &k.enc, k.rounds)
	return k
}

// groups runs every whole group of eight blocks of src through the kernel
// into dst and returns the bytes it covered; tweak comes back multiplied on
// so the caller's loop continues with the tail (fewer than eight blocks).
func (k *xtsKernel) groups(tweak *[16]byte, dst, src []byte, encrypt bool) int {
	n := len(src) / 128
	if n == 0 {
		return 0
	}
	if encrypt {
		xtsEnc8(&k.enc, k.rounds, tweak, &dst[0], &src[0], n)
	} else {
		xtsDec8(&k.dec, k.rounds, tweak, &dst[0], &src[0], n)
	}
	return n * 128
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

// cpuHasAES reports CPUID.1:ECX.AES. The kernel uses nothing beyond AES-NI
// and SSE2, which every amd64 CPU has.
func cpuHasAES() bool

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
