// Package xcrypto implements the cryptographic substrate of the MobiCeal
// reproduction: PBKDF2 (RFC 2898), the AES-XTS sector cipher (the dm-crypt
// mode, "aes-xts-plain64"), the discarded-key noise generator used by dummy
// writes, and the Android-style crypto footer with MobiCeal's key-derivation
// trick (decrypting the same footer ciphertext under different passwords
// yields the decoy key or a hidden key, so hidden keys occupy no extra
// space — paper Sec. V-B).
//
// The module is offline and stdlib-only, so PBKDF2 and XTS are implemented
// here from their specifications rather than imported from golang.org/x.
package xcrypto

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"hash"
)

// PBKDF2Key derives a key of keyLen bytes from password and salt using
// PBKDF2 (RFC 2898) with iter iterations of HMAC-h.
//
// Android's cryptfs derives its key-encryption key this way (historically
// PBKDF2-SHA1 with 2000 iterations); MobiCeal additionally uses PBKDF2 to
// derive the hidden-volume index k = (H(pwd||salt) mod (n-1)) + 2
// (Sec. IV-C).
func PBKDF2Key(password, salt []byte, iter, keyLen int, h func() hash.Hash) []byte {
	prf := hmac.New(h, password)
	hashLen := prf.Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen

	var buf [4]byte
	dk := make([]byte, 0, numBlocks*hashLen)
	u := make([]byte, hashLen)
	t := make([]byte, hashLen)
	for block := 1; block <= numBlocks; block++ {
		// U_1 = PRF(password, salt || INT(block))
		prf.Reset()
		prf.Write(salt)
		binary.BigEndian.PutUint32(buf[:], uint32(block))
		prf.Write(buf[:])
		u = prf.Sum(u[:0])
		copy(t, u)
		// U_i = PRF(password, U_{i-1}); T = U_1 ^ ... ^ U_c
		for i := 2; i <= iter; i++ {
			prf.Reset()
			prf.Write(u)
			u = prf.Sum(u[:0])
			for x := range t {
				t[x] ^= u[x]
			}
		}
		dk = append(dk, t...)
	}
	return dk[:keyLen]
}

// PBKDF2SHA1 derives a key with HMAC-SHA1, the Android 4.x cryptfs default.
func PBKDF2SHA1(password, salt []byte, iter, keyLen int) []byte {
	return PBKDF2Key(password, salt, iter, keyLen, sha1.New)
}
