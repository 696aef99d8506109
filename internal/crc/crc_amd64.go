//go:build amd64 && !purego

package crc

var hasCLMUL = cpuHasCLMUL()

// cpuHasCLMUL reports CPUID.1:ECX.PCLMULQDQ. The kernel uses nothing else
// beyond SSE2, which every amd64 CPU has.
func cpuHasCLMUL() bool

// foldCLMUL folds p (a multiple of 16 bytes, at least 64) with reg XORed
// into its first 8 bytes under the constants k, and returns the 128-bit
// remainder as its two little-endian halves.
//
//go:noescape
func foldCLMUL(k *[4]uint64, reg uint64, p []byte) (lo, hi uint64)
