//go:build !amd64 || purego

package crc

// This build has no kernel: the table is the only path.
const hasCLMUL = false

func foldCLMUL(*[4]uint64, uint64, []byte) (lo, hi uint64) { panic("crc: no kernel in this build") }
