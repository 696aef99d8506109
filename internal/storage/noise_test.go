package storage

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// NoiseBackground generates deterministic pseudorandom content per block,
// modeling a device that was filled with randomness at initialization (the
// static defense of single-snapshot PDE schemes). Content is an AES-CTR
// keystream keyed by the seed with the block index as nonce, so it is
// indistinguishable from ciphertext — exactly the property those schemes
// rely on.
type NoiseBackground struct {
	seed  uint64
	block cipher.Block
}

var _ Background = (*NoiseBackground)(nil)

// NewNoiseBackground returns a NoiseBackground derived from seed.
func NewNoiseBackground(seed uint64) *NoiseBackground {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	binary.LittleEndian.PutUint64(key[8:16], seed^0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(key[16:24], seed*0xbf58476d1ce4e5b9+1)
	binary.LittleEndian.PutUint64(key[24:32], ^seed)
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("storage: aes.NewCipher with fixed-size key: %v", err))
	}
	return &NoiseBackground{seed: seed, block: blk}
}

// FillBlock implements Background. The keystream is produced by encrypting
// the counter straight into dst — byte-identical to XORing an AES-CTR
// stream into zeros, without the zeroing pass and the XOR pass.
func (n *NoiseBackground) FillBlock(idx uint64, dst []byte) {
	var ctr [aes.BlockSize]byte
	binary.BigEndian.PutUint64(ctr[:8], idx)
	for len(dst) >= aes.BlockSize {
		n.block.Encrypt(dst[:aes.BlockSize], ctr[:])
		incCounter(&ctr)
		dst = dst[aes.BlockSize:]
	}
	if len(dst) > 0 {
		var tail [aes.BlockSize]byte
		n.block.Encrypt(tail[:], ctr[:])
		copy(dst, tail[:])
	}
}

// incCounter increments a CTR counter block (big-endian, full width), the
// same stepping cipher.NewCTR applies.
func incCounter(ctr *[aes.BlockSize]byte) {
	for i := aes.BlockSize - 1; i >= 0; i-- {
		ctr[i]++
		if ctr[i] != 0 {
			return
		}
	}
}

// Equal implements Background.
func (n *NoiseBackground) Equal(other Background) bool {
	o, ok := other.(*NoiseBackground)
	return ok && o.seed == n.seed
}
