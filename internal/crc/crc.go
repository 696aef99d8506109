// Package crc is the repository's one metadata checksum: CRC-64/ECMA as
// hash/crc64 computes it with the ECMA table (the CRC-64/XZ parameters),
// with a carry-less-multiply kernel for long inputs on amd64. Every result
// is bit-identical to crc64.Update(crc, Table, p); the on-disk superblock
// and journal seals depend on it.
package crc

import (
	"encoding/binary"
	"hash/crc64"
)

// Table is the CRC-64/ECMA table: the kernel's finishing path and the one
// callers that need the table itself (thinp's block folder) share.
var Table = crc64.MakeTable(crc64.ECMA)

// Checksum returns the CRC-64/ECMA checksum of p.
func Checksum(p []byte) uint64 { return Update(0, p) }

// Update returns crc updated with the bytes of p. Inputs under 64 bytes,
// and every input on a CPU or build without the kernel, take the table.
func Update(crc uint64, p []byte) uint64 {
	if len(p) < 64 || !hasCLMUL {
		return crc64.Update(crc, Table, p)
	}
	// The kernel folds every whole 16-byte chunk, the register XORed into
	// the first, down to a 128-bit remainder congruent to them mod P. The
	// CRC of that prefix is the CRC of the remainder's 16 bytes hashed from
	// a zero register — an inverted ^0 in crc64.Update's convention — and
	// the tail continues from there.
	n := len(p) &^ 15
	lo, hi := foldCLMUL(&foldK, ^crc, p[:n])
	var rem [16]byte
	binary.LittleEndian.PutUint64(rem[:8], lo)
	binary.LittleEndian.PutUint64(rem[8:], hi)
	return crc64.Update(crc64.Update(^uint64(0), Table, rem[:]), Table, p[n:])
}

// foldK holds the kernel's fold constants, x^(D+63) mod P for a lane's
// first 8 bytes and x^(D-1) mod P for its second, for D = 512 (four lanes
// a 64-byte step) and D = 128 (one lane into the next). The -1 absorbs the
// extra x a carry-less product of two bit-reflected operands carries.
var foldK = [4]uint64{xPowMod(512 + 63), xPowMod(512 - 1), xPowMod(128 + 63), xPowMod(128 - 1)}

// xPowMod returns x^n mod P bit-reflected, the way hash/crc64 holds its
// register: multiplying by x is a right shift, and the x^64 that falls out
// reduces to crc64.ECMA.
func xPowMod(n int) uint64 {
	r := uint64(1) << 63
	for ; n > 0; n-- {
		r = r>>1 ^ -(r&1)&crc64.ECMA
	}
	return r
}
