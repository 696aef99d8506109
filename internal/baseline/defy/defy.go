// Package defy reproduces a DEFY-class baseline (Peters et al., NDSS'15),
// the deniable log-structured encrypted file store the paper compares
// against in Table I. DEFY rides YAFFS2's log-structured writes: every
// logical write is appended at the log head encrypted under a per-write
// key from a key-storage tree (KST), whose path must be re-encrypted and
// appended too; secure deletion forces whole-path rewrites. The result is
// several crypto passes and several physical appends per logical write —
// on DEFY's RAM-backed nandsim testbed I/O is nearly free, so the >93%
// overhead of Table I row 1 is crypto-bound, which this implementation
// reproduces with genuine crypto work.
//
// The store exposes storage.Device so the same workloads drive it.
package defy

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

// Package errors.
var (
	// ErrLogFull reports an exhausted log (no GC in this baseline).
	ErrLogFull = errors.New("defy: log full")
	// ErrTooSmall reports a physical device too small for the layout.
	ErrTooSmall = errors.New("defy: physical device too small")
)

// Config tunes the DEFY-like store.
type Config struct {
	// Entropy supplies per-epoch key material.
	Entropy prng.Entropy
	// Meter optionally charges virtual time.
	Meter *vclock.Meter
	// KSTFanout is the key-storage-tree fanout (default 64).
	KSTFanout int
}

func (c *Config) fill() {
	if c.Entropy == nil {
		c.Entropy = prng.SystemEntropy()
	}
	if c.KSTFanout <= 0 {
		c.KSTFanout = 64
	}
}

// Device is the logical view of the DEFY-like store. Safe for concurrent
// use.
type Device struct {
	mu sync.Mutex

	phys    storage.Device
	cfg     Config
	root    [32]byte // KST root key
	logical uint64
	head    uint64   // log append cursor
	mapping []uint64 // logical -> physical (latest version), ^0 = unwritten
	epochs  []uint64 // per-logical-block version counter
	fanout  uint64
}

var _ storage.Device = (*Device)(nil)

// New builds the store over phys with the given logical capacity. The log
// needs headroom: physical capacity must exceed logical capacity (the
// prototype uses whatever slack the flash provides; here we require 25%).
func New(phys storage.Device, logical uint64, cfg Config) (*Device, error) {
	cfg.fill()
	if logical == 0 || phys.NumBlocks() < logical+logical/4 {
		return nil, fmt.Errorf("%w: %d physical for %d logical",
			ErrTooSmall, phys.NumBlocks(), logical)
	}
	d := &Device{
		phys:    phys,
		cfg:     cfg,
		logical: logical,
		mapping: make([]uint64, logical),
		epochs:  make([]uint64, logical),
		fanout:  uint64(cfg.KSTFanout),
	}
	for i := range d.mapping {
		d.mapping[i] = ^uint64(0)
	}
	rootKey, err := prng.Bytes(cfg.Entropy, 32)
	if err != nil {
		return nil, fmt.Errorf("defy: root key: %w", err)
	}
	copy(d.root[:], rootKey)
	return d, nil
}

// BlockSize implements storage.Device.
func (d *Device) BlockSize() int { return d.phys.BlockSize() }

// NumBlocks implements storage.Device.
func (d *Device) NumBlocks() uint64 { return d.logical }

// Sync implements storage.Device.
func (d *Device) Sync() error { return d.phys.Sync() }

// Close implements storage.Device.
func (d *Device) Close() error { return nil }

// blockKey derives the per-block, per-epoch data key: a KST walk from the
// root through the block's tree path. Each level is one hash (standing in
// for one node decryption); the work is charged as crypto.
func (d *Device) blockKey(l, epoch uint64) [32]byte {
	key := d.root
	// Tree depth for the block index under the configured fanout.
	for span := d.logical; span > 1; span = (span + d.fanout - 1) / d.fanout {
		h := sha256.New()
		h.Write(key[:])
		var idx [16]byte
		putU64(idx[:], l%span)
		putU64(idx[8:], epoch)
		h.Write(idx[:])
		sum := h.Sum(nil)
		copy(key[:], sum)
	}
	return key
}

// kstPathNodes returns how many KST nodes a write must re-encrypt and
// append: the path from the block's leaf to the root.
func (d *Device) kstPathNodes() int {
	n := 0
	for span := d.logical; span > 1; span = (span + d.fanout - 1) / d.fanout {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (d *Device) appendLocked(content []byte) (uint64, error) {
	if d.head >= d.phys.NumBlocks() {
		return 0, ErrLogFull
	}
	slot := d.head
	d.head++
	if err := d.phys.WriteBlock(slot, content); err != nil {
		return 0, err
	}
	return slot, nil
}

// WriteBlock implements storage.Device: encrypt under the per-block
// epoch key, append at the log head, and append the re-encrypted KST path.
func (d *Device) WriteBlock(idx uint64, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx >= d.logical {
		return fmt.Errorf("%w: block %d of %d", storage.ErrOutOfRange, idx, d.logical)
	}
	if len(src) != d.phys.BlockSize() {
		return storage.ErrBadBuffer
	}
	d.epochs[idx]++
	key := d.blockKey(idx, d.epochs[idx])
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return fmt.Errorf("defy: block cipher: %w", err)
	}
	ct := make([]byte, len(src))
	var iv [16]byte
	putU64(iv[:], idx)
	putU64(iv[8:], d.epochs[idx])
	cipher.NewCTR(blk, iv[:]).XORKeyStream(ct, src)
	d.cfg.Meter.ChargeCrypto(len(src))
	slot, err := d.appendLocked(ct)
	if err != nil {
		return err
	}
	d.mapping[idx] = slot

	// Re-encrypt and append the KST path: one node block per level, each a
	// full crypto pass plus an append — DEFY's dominant cost.
	nodeBuf := make([]byte, d.phys.BlockSize())
	for level := 0; level < d.kstPathNodes(); level++ {
		nodeKey := d.blockKey(idx/d.fanout+uint64(level), d.epochs[idx])
		nodeBlk, err := aes.NewCipher(nodeKey[:])
		if err != nil {
			return fmt.Errorf("defy: KST cipher: %w", err)
		}
		var nodeIV [16]byte
		putU64(nodeIV[:], uint64(level))
		putU64(nodeIV[8:], d.epochs[idx])
		cipher.NewCTR(nodeBlk, nodeIV[:]).XORKeyStream(nodeBuf, nodeBuf)
		d.cfg.Meter.ChargeCrypto(len(nodeBuf))
		if _, err := d.appendLocked(nodeBuf); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlock implements storage.Device: map lookup, read the latest version,
// decrypt (one KST walk + one data pass).
func (d *Device) ReadBlock(idx uint64, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx >= d.logical {
		return fmt.Errorf("%w: block %d of %d", storage.ErrOutOfRange, idx, d.logical)
	}
	if len(dst) != d.phys.BlockSize() {
		return storage.ErrBadBuffer
	}
	slot := d.mapping[idx]
	if slot == ^uint64(0) {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	if err := d.phys.ReadBlock(slot, dst); err != nil {
		return err
	}
	key := d.blockKey(idx, d.epochs[idx])
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return fmt.Errorf("defy: block cipher: %w", err)
	}
	var iv [16]byte
	putU64(iv[:], idx)
	putU64(iv[8:], d.epochs[idx])
	cipher.NewCTR(blk, iv[:]).XORKeyStream(dst, dst)
	d.cfg.Meter.ChargeCrypto(len(dst))
	return nil
}

// NewOverProfile builds a DEFY device over a fresh memory device charged
// against meter, sized so the given logical capacity fits with log
// headroom factor 4 (log-structured stores need slack; no GC here).
func NewOverProfile(blockSize int, logical uint64, meter *vclock.Meter, seed uint64) (*Device, error) {
	mem := storage.NewMemDevice(blockSize, logical*8)
	return New(vclock.NewCostDevice(mem, meter, vclock.Flash), logical, Config{
		Entropy: prng.NewSeededEntropy(seed),
		Meter:   meter,
	})
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}
