package xcrypto

import (
	"errors"
	"unsafe"
)

// Sentinel errors for the sector ciphers.
var (
	// ErrKeySize reports a key of unsupported length.
	ErrKeySize = errors.New("xcrypto: unsupported key size")
	// ErrDataSize reports a data unit that is not a positive multiple of
	// the AES block size.
	ErrDataSize = errors.New("xcrypto: data length not a multiple of 16")
	// ErrBufferMismatch reports dst/src length mismatch.
	ErrBufferMismatch = errors.New("xcrypto: dst and src lengths differ")
	// ErrBufferOverlap reports dst and src sharing memory without being
	// the same slice: a cipher would read bytes it has already overwritten.
	ErrBufferOverlap = errors.New("xcrypto: dst and src overlap inexactly")
)

// checkSectorBuffers validates a sector call's buffers: equal lengths, a
// positive multiple of 16, and either the same slice or disjoint.
func checkSectorBuffers(dst, src []byte) error {
	if len(dst) != len(src) {
		return ErrBufferMismatch
	}
	if len(src) == 0 || len(src)%16 != 0 {
		return ErrDataSize
	}
	// Equal lengths: the two overlap inexactly iff their starts differ, by
	// less than the length (crypto/cipher panics on the same condition).
	// One of the unsigned differences wraps and is huge.
	d, s, n := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0])), uintptr(len(src))
	if d != s && (d-s < n || s-d < n) {
		return ErrBufferOverlap
	}
	return nil
}
