// Package hive reproduces the HIVE baseline (Blass et al., CCS'14), the
// write-only-ORAM PDE the paper compares against in Table I. HIVE hides
// *every* write: each logical write touches k uniformly random physical
// slots (re-randomizing whatever lives there), routes pending data through
// a stash, and updates an on-device encrypted position map — so two
// snapshots differ in uniformly random places regardless of what was
// written. The price is the write amplification and randomized-encryption
// cost that give HIVE its >99% overhead (Table I row 2), which is exactly
// the behaviour this implementation reproduces with genuine I/O and
// crypto work.
package hive

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

// Package errors.
var (
	// ErrTooSmall reports a physical device too small for the layout.
	ErrTooSmall = errors.New("hive: physical device too small")
	// ErrStashOverflow reports a stash exceeding its bound, which means
	// utilization is too high for the k/spare parameters.
	ErrStashOverflow = errors.New("hive: stash overflow")
)

// Config tunes the write-only ORAM.
type Config struct {
	// K is the number of random candidate slots touched per logical write
	// (default 3, the HIVE paper's choice).
	K int
	// MaxStash bounds the pending-block stash (default 128).
	MaxStash int
	// Entropy supplies per-write randomization IVs.
	Entropy prng.Entropy
	// Src drives slot selection.
	Src *prng.Source
	// Meter optionally charges virtual time.
	Meter *vclock.Meter
}

func (c *Config) fill() {
	if c.K <= 0 {
		c.K = 3
	}
	if c.MaxStash <= 0 {
		c.MaxStash = 128
	}
	if c.Entropy == nil {
		c.Entropy = prng.SystemEntropy()
	}
	if c.Src == nil {
		c.Src = prng.NewSource(0x68697665)
	}
}

const (
	ivSize      = 16
	freeSlot    = ^uint64(0)
	unassigned  = ^uint64(0)
	utilization = 2 // physical data slots per logical block
)

// Device is the logical block device exposed by the write-only ORAM.
// It implements storage.Device. Device is safe for concurrent use.
type Device struct {
	mu sync.Mutex

	phys   storage.Device
	aesKey cipher.Block
	cfg    Config

	logical   uint64
	slots     uint64 // physical data slots
	ivStart   uint64 // first IV-table block
	ivBlocks  uint64
	mapStart  uint64 // first position-map block
	mapBlocks uint64

	posMap  []uint64 // logical -> slot
	inverse []uint64 // slot -> logical
	ivs     [][ivSize]byte
	mapVer  []uint64 // per-map-block version counters (ciphertext freshness)
	stash   map[uint64][]byte
}

var _ storage.Device = (*Device)(nil)

// New builds a write-only ORAM over phys keyed by key (32 bytes). The
// logical capacity is derived from the physical size at 50% utilization
// after reserving the IV table and position map.
func New(phys storage.Device, key []byte, cfg Config) (*Device, error) {
	cfg.fill()
	if len(key) != 32 {
		return nil, fmt.Errorf("hive: key must be 32 bytes, got %d", len(key))
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("hive: cipher: %w", err)
	}
	bs := uint64(phys.BlockSize())
	total := phys.NumBlocks()

	// Solve the layout: slots + ivBlocks(slots) + mapBlocks(slots/2) = total.
	slots := total
	for i := 0; i < 8; i++ {
		ivBlocks := (slots*ivSize + bs - 1) / bs
		mapBlocks := ((slots/utilization)*8 + bs - 1) / bs
		if ivBlocks+mapBlocks >= total {
			return nil, fmt.Errorf("%w: %d blocks", ErrTooSmall, total)
		}
		slots = total - ivBlocks - mapBlocks
	}
	ivBlocks := (slots*ivSize + bs - 1) / bs
	mapBlocks := ((slots/utilization)*8 + bs - 1) / bs
	for slots+ivBlocks+mapBlocks > total {
		slots--
		ivBlocks = (slots*ivSize + bs - 1) / bs
		mapBlocks = ((slots/utilization)*8 + bs - 1) / bs
	}
	logical := slots / utilization
	if logical < 4 || uint64(cfg.K) >= slots {
		return nil, fmt.Errorf("%w: %d slots for k=%d", ErrTooSmall, slots, cfg.K)
	}

	d := &Device{
		phys:      phys,
		aesKey:    blk,
		cfg:       cfg,
		logical:   logical,
		slots:     slots,
		ivStart:   slots,
		ivBlocks:  ivBlocks,
		mapStart:  slots + ivBlocks,
		mapBlocks: mapBlocks,
		posMap:    make([]uint64, logical),
		inverse:   make([]uint64, slots),
		ivs:       make([][ivSize]byte, slots),
		mapVer:    make([]uint64, mapBlocks),
		stash:     make(map[uint64][]byte),
	}
	for i := range d.posMap {
		d.posMap[i] = unassigned
	}
	for i := range d.inverse {
		d.inverse[i] = freeSlot
	}
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

// encryptSlot writes plaintext data into slot with a fresh random IV
// (randomized encryption — mandatory for write-only ORAM: deterministic
// re-encryption would reveal untouched content).
func (d *Device) encryptSlot(slot uint64, plain []byte) error {
	var iv [ivSize]byte
	if _, err := io.ReadFull(d.cfg.Entropy, iv[:]); err != nil {
		return fmt.Errorf("hive: drawing IV: %w", err)
	}
	ct := make([]byte, len(plain))
	cipher.NewCTR(d.aesKey, iv[:]).XORKeyStream(ct, plain)
	if err := d.phys.WriteBlock(slot, ct); err != nil {
		return err
	}
	d.ivs[slot] = iv
	d.cfg.Meter.ChargeCrypto(len(plain))
	// Persist the IV-table block this slot lives in.
	return d.writeIVBlock(slot)
}

func (d *Device) decryptSlot(slot uint64, dst []byte) error {
	if err := d.phys.ReadBlock(slot, dst); err != nil {
		return err
	}
	iv := d.ivs[slot]
	cipher.NewCTR(d.aesKey, iv[:]).XORKeyStream(dst, dst)
	d.cfg.Meter.ChargeCrypto(len(dst))
	return nil
}

// writeIVBlock persists the IV-table block covering slot.
func (d *Device) writeIVBlock(slot uint64) error {
	bs := uint64(d.phys.BlockSize())
	perBlock := bs / ivSize
	blockIdx := slot / perBlock
	buf := make([]byte, bs)
	first := blockIdx * perBlock
	for i := uint64(0); i < perBlock && first+i < d.slots; i++ {
		copy(buf[i*ivSize:], d.ivs[first+i][:])
	}
	if err := d.phys.WriteBlock(d.ivStart+blockIdx, buf); err != nil {
		return fmt.Errorf("hive: writing IV table: %w", err)
	}
	return nil
}

// writeMapBlock persists (encrypted, versioned) the position-map block
// covering logical block l.
func (d *Device) writeMapBlock(l uint64) error {
	bs := uint64(d.phys.BlockSize())
	perBlock := (bs - 8) / 8
	blockIdx := l / perBlock
	if blockIdx >= d.mapBlocks {
		blockIdx = d.mapBlocks - 1
	}
	d.mapVer[blockIdx]++
	buf := make([]byte, bs)
	putU64(buf, d.mapVer[blockIdx])
	first := blockIdx * perBlock
	for i := uint64(0); i < perBlock && first+i < d.logical; i++ {
		putU64(buf[8+i*8:], d.posMap[first+i])
	}
	// Encrypt the map block with a version-bound CTR stream so ciphertext
	// changes on every update.
	var iv [ivSize]byte
	putU64(iv[:], blockIdx)
	putU64(iv[8:], d.mapVer[blockIdx])
	cipher.NewCTR(d.aesKey, iv[:]).XORKeyStream(buf, buf)
	d.cfg.Meter.ChargeCrypto(len(buf))
	if err := d.phys.WriteBlock(d.mapStart+blockIdx, buf); err != nil {
		return fmt.Errorf("hive: writing position map: %w", err)
	}
	return nil
}

// readMapBlock charges the position-map read a real HIVE performs per
// access; the authoritative map is cached in memory.
func (d *Device) readMapBlock(l uint64) error {
	bs := uint64(d.phys.BlockSize())
	perBlock := (bs - 8) / 8
	blockIdx := l / perBlock
	if blockIdx >= d.mapBlocks {
		blockIdx = d.mapBlocks - 1
	}
	buf := make([]byte, bs)
	if err := d.phys.ReadBlock(d.mapStart+blockIdx, buf); err != nil {
		return fmt.Errorf("hive: reading position map: %w", err)
	}
	d.cfg.Meter.ChargeCrypto(len(buf))
	return nil
}

// ReadBlock implements storage.Device.
func (d *Device) ReadBlock(idx uint64, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx >= d.logical {
		return fmt.Errorf("%w: block %d of %d", storage.ErrOutOfRange, idx, d.logical)
	}
	if len(dst) != d.phys.BlockSize() {
		return storage.ErrBadBuffer
	}
	if pending, ok := d.stash[idx]; ok {
		copy(dst, pending)
		return nil
	}
	if err := d.readMapBlock(idx); err != nil {
		return err
	}
	slot := d.posMap[idx]
	if slot == unassigned {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	return d.decryptSlot(slot, dst)
}

// WriteBlock implements storage.Device: the write-only ORAM protocol.
func (d *Device) WriteBlock(idx uint64, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx >= d.logical {
		return fmt.Errorf("%w: block %d of %d", storage.ErrOutOfRange, idx, d.logical)
	}
	if len(src) != d.phys.BlockSize() {
		return storage.ErrBadBuffer
	}
	// Invalidate the block's old slot (its content is now stale) and stash
	// the new data.
	if old := d.posMap[idx]; old != unassigned {
		d.inverse[old] = freeSlot
		d.posMap[idx] = unassigned
	}
	cp := make([]byte, len(src))
	copy(cp, src)
	d.stash[idx] = cp

	// Touch k distinct uniformly random slots, in ascending order. Every
	// walk over chosen and the stash goes in sorted order: the device's
	// placements and the seek model's charges must not depend on Go's
	// randomized map iteration.
	chosen := make(map[uint64]bool, d.cfg.K)
	for len(chosen) < d.cfg.K {
		chosen[d.cfg.Src.Uint64n(d.slots)] = true
	}
	scratch := make([]byte, d.phys.BlockSize())
	for _, slot := range slices.Sorted(maps.Keys(chosen)) {
		owner := d.inverse[slot]
		switch {
		case owner == freeSlot:
			// Free slot: place the lowest pending stash block if there is
			// one, else write fresh garbage (indistinguishable either way).
			if len(d.stash) > 0 {
				l := slices.Min(slices.Collect(maps.Keys(d.stash)))
				if err := d.placeStashed(l, slot); err != nil {
					return err
				}
			} else {
				if _, err := io.ReadFull(d.cfg.Entropy, scratch); err != nil {
					return fmt.Errorf("hive: garbage fill: %w", err)
				}
				if err := d.encryptSlot(slot, scratch); err != nil {
					return err
				}
			}
		default:
			// Live slot: re-randomize in place (read, decrypt, re-encrypt
			// under a fresh IV).
			if err := d.decryptSlot(slot, scratch); err != nil {
				return err
			}
			if err := d.encryptSlot(slot, scratch); err != nil {
				return err
			}
		}
	}
	if len(d.stash) > d.cfg.MaxStash {
		// Forced drain: place remaining stash blocks in the first free
		// slots. A real HIVE would block; either way the device stays
		// correct.
		for _, l := range slices.Sorted(maps.Keys(d.stash)) {
			slot, ok := d.findFreeSlot()
			if !ok {
				return ErrStashOverflow
			}
			if err := d.placeStashed(l, slot); err != nil {
				return err
			}
		}
	}
	return nil
}

// placeStashed moves stash block l into free slot: encrypt it there,
// record the mapping and persist the map entry.
func (d *Device) placeStashed(l, slot uint64) error {
	if err := d.encryptSlot(slot, d.stash[l]); err != nil {
		return err
	}
	d.posMap[l] = slot
	d.inverse[slot] = l
	delete(d.stash, l)
	return d.writeMapBlock(l)
}

func (d *Device) findFreeSlot() (uint64, bool) {
	for i := uint64(0); i < d.slots; i++ {
		if d.inverse[i] == freeSlot {
			return i, true
		}
	}
	return 0, false
}

// NewOverProfile is a convenience used by experiments: builds a HIVE device
// over a fresh memory device charged against meter.
func NewOverProfile(blockSize int, physBlocks uint64, key []byte, meter *vclock.Meter, seed uint64) (*Device, error) {
	mem := storage.NewMemDevice(blockSize, physBlocks)
	return New(vclock.NewCostDevice(mem, meter, vclock.Flash), key, Config{
		Entropy: prng.NewSeededEntropy(seed),
		Src:     prng.NewSource(seed),
		Meter:   meter,
	})
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}
