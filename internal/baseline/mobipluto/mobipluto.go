// Package mobipluto reproduces MobiPluto (Chang et al., ACSAC'15), the
// paper's closest prior system and its Table II comparison row: a
// file-system-friendly hidden-volume PDE built on *stock* thin provisioning.
//
// Design (paper Secs. II-B, VII-A): at initialization the entire data area
// is filled with randomness; the public volume is a thin volume allocated
// *sequentially* from the start of the pool; the hidden volume is a
// dm-crypt device placed at a password-derived secret offset in the second
// half of the disk, invisible to the pool's metadata. A single-snapshot
// adversary cannot tell hidden ciphertext from the initial random fill —
// but a multi-snapshot adversary diffs two images and finds modified blocks
// that the pool bitmap says were never allocated, which is unaccountable.
// The adversary package's unaccountable-change detector breaks exactly
// this.
package mobipluto

import (
	"errors"
	"fmt"

	"mobiceal/internal/dm"
	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

// Package errors.
var (
	// ErrTooSmall reports a device too small for the layout.
	ErrTooSmall = errors.New("mobipluto: device too small")
	// ErrBadPassword reports a hidden password that opens nothing.
	ErrBadPassword = errors.New("mobipluto: password opens no hidden volume")
)

// Config configures a MobiPluto system.
type Config struct {
	// KDFIter is the PBKDF2 iteration count.
	KDFIter int
	// Entropy supplies keys, salts and the initial random fill.
	Entropy prng.Entropy
	// Meter optionally charges virtual time.
	Meter *vclock.Meter
	// HiddenFraction is the hidden volume size as a fraction of the data
	// area (default 1/4, placed in the second half).
	HiddenFraction float64
	// SkipFill skips materializing the initial random fill on the device
	// (it is still charged to the meter). Large-device experiments use
	// this; adversary experiments must not.
	SkipFill bool
	// NominalFillBytes, when nonzero, is the byte count charged for the
	// initial fill instead of the actual (simulation-scale) device size,
	// so Table II timings model the paper's 13 GB userdata partition
	// without writing 13 GB.
	NominalFillBytes uint64
}

func (c *Config) fill() {
	if c.KDFIter == 0 {
		c.KDFIter = xcrypto.DefaultKDFIter
	}
	if c.Entropy == nil {
		c.Entropy = prng.SystemEntropy()
	}
	if c.HiddenFraction == 0 {
		c.HiddenFraction = 0.25
	}
}

// PublicVolumeID is the public thin volume's id.
const PublicVolumeID = 1

// System is an initialized MobiPluto device.
type System struct {
	dev    storage.Device
	cfg    Config
	footer *xcrypto.Footer
	pool   *thinp.Pool

	metaBlocks uint64
	dataBlocks uint64
}

// Setup initializes a fresh MobiPluto device: random fill, crypto footer
// under the decoy password, stock sequential thin pool, public thin volume.
// The hidden volume needs no setup step beyond the fill — it comes into
// existence when first formatted via OpenHidden, which is the source of its
// deniability.
func Setup(dev storage.Device, cfg Config, decoyPassword string) (*System, error) {
	cfg.fill()
	bs := dev.BlockSize()
	footerBlocks := xcrypto.FooterBlocks(bs)
	metaBlocks := thinp.MetaBlocksNeeded(dev.NumBlocks(), bs)
	if metaBlocks+footerBlocks+8 > dev.NumBlocks() {
		return nil, fmt.Errorf("%w: %d blocks", ErrTooSmall, dev.NumBlocks())
	}
	dataBlocks := dev.NumBlocks() - metaBlocks - footerBlocks

	// Initial random fill across the data area — the static single-shot
	// defense (paper Sec. II-B). This is the dominant initialization cost
	// in Table II.
	if cfg.Meter != nil {
		fillBytes := dataBlocks * uint64(bs)
		if cfg.NominalFillBytes > 0 {
			fillBytes = cfg.NominalFillBytes
		}
		cfg.Meter.ChargeRandFill(fillBytes)
	}
	if !cfg.SkipFill {
		noise := make([]byte, bs)
		for i := uint64(0); i < dataBlocks; i++ {
			if err := xcrypto.FillNoise(cfg.Entropy, noise); err != nil {
				return nil, fmt.Errorf("mobipluto: generating fill: %w", err)
			}
			if err := dev.WriteBlock(metaBlocks+i, noise); err != nil {
				return nil, fmt.Errorf("mobipluto: writing fill block %d: %w", i, err)
			}
		}
	}

	footer, _, err := xcrypto.NewFooter(cfg.Entropy, decoyPassword, 1, cfg.KDFIter)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: creating footer: %w", err)
	}
	if err := xcrypto.WriteFooter(dev, footer); err != nil {
		return nil, fmt.Errorf("mobipluto: writing footer: %w", err)
	}

	sys := &System{
		dev:        dev,
		cfg:        cfg,
		footer:     footer,
		metaBlocks: metaBlocks,
		dataBlocks: dataBlocks,
	}
	if err := sys.buildPool(true); err != nil {
		return nil, err
	}
	if err := sys.pool.CreateThin(PublicVolumeID, dataBlocks); err != nil {
		return nil, fmt.Errorf("mobipluto: creating public volume: %w", err)
	}
	if err := sys.pool.Commit(); err != nil {
		return nil, fmt.Errorf("mobipluto: committing setup: %w", err)
	}
	return sys, nil
}

// Open loads an existing MobiPluto device.
func Open(dev storage.Device, cfg Config) (*System, error) {
	cfg.fill()
	footer, err := xcrypto.ReadFooter(dev)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: reading footer: %w", err)
	}
	bs := dev.BlockSize()
	metaBlocks := thinp.MetaBlocksNeeded(dev.NumBlocks(), bs)
	sys := &System{
		dev:        dev,
		cfg:        cfg,
		footer:     footer,
		metaBlocks: metaBlocks,
		dataBlocks: dev.NumBlocks() - metaBlocks - xcrypto.FooterBlocks(bs),
	}
	if err := sys.buildPool(false); err != nil {
		return nil, err
	}
	return sys, nil
}

func (s *System) buildPool(create bool) error {
	metaDev, err := storage.NewSliceDevice(s.dev, 0, s.metaBlocks)
	if err != nil {
		return fmt.Errorf("mobipluto: metadata region: %w", err)
	}
	dataDev, err := storage.NewSliceDevice(s.dev, s.metaBlocks, s.dataBlocks)
	if err != nil {
		return fmt.Errorf("mobipluto: data region: %w", err)
	}
	data := vclock.NewCostDevice(dataDev, s.cfg.Meter, vclock.Flash)
	opts := thinp.Options{
		Allocator: thinp.NewSequentialAllocator(), // stock dm-thin
		Entropy:   s.cfg.Entropy,
	}
	if create {
		s.pool, err = thinp.CreatePool(data, metaDev, opts)
	} else {
		s.pool, err = thinp.OpenPool(data, metaDev, opts)
	}
	if err != nil {
		return fmt.Errorf("mobipluto: thin pool: %w", err)
	}
	return nil
}

// Pool exposes the thin pool for adversary inspection.
func (s *System) Pool() *thinp.Pool { return s.pool }

// DataBlocks returns the data-area size in blocks.
func (s *System) DataBlocks() uint64 { return s.dataBlocks }

// OpenPublic returns the decrypted public thin volume.
func (s *System) OpenPublic(password string) (storage.Device, error) {
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: deriving public key: %w", err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: public cipher: %w", err)
	}
	thin, err := s.pool.Thin(PublicVolumeID)
	if err != nil {
		return nil, err
	}
	crypt := dm.NewCrypt(vclock.NewCostDevice(thin, s.cfg.Meter, vclock.Thin), cipher)
	return vclock.NewCostDevice(crypt, s.cfg.Meter, vclock.Crypt), nil
}

// hiddenRegion derives the secret hidden-volume placement for a password:
// an offset in the second half of the data area plus a fixed-fraction
// length, both functions of the password and the footer salt.
func (s *System) hiddenRegion(password string) (offset, length uint64) {
	length = uint64(float64(s.dataBlocks) * s.cfg.HiddenFraction)
	if length == 0 {
		length = 1
	}
	half := s.dataBlocks / 2
	span := s.dataBlocks - half - length
	if span == 0 {
		span = 1
	}
	h := xcrypto.PBKDF2SHA1([]byte(password), s.footer.PDESalt[:], s.cfg.KDFIter, 8)
	var v uint64
	for i, b := range h {
		v |= uint64(b) << (8 * uint(i))
	}
	return half + v%span, length
}

// OpenHidden returns the decrypted hidden volume for password. The hidden
// volume is a raw dm-crypt region unknown to the pool; there is no
// verifier — the caller probe-mounts, and a wrong password simply yields
// an unmountable garbage view, reported as ErrBadPassword by Boot.
func (s *System) OpenHidden(password string) (storage.Device, error) {
	offset, length := s.hiddenRegion(password)
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: deriving hidden key: %w", err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: hidden cipher: %w", err)
	}
	region, err := storage.NewSliceDevice(s.dev, s.metaBlocks+offset, length)
	if err != nil {
		return nil, fmt.Errorf("mobipluto: hidden region: %w", err)
	}
	crypt := dm.NewCrypt(vclock.NewCostDevice(region, s.cfg.Meter, vclock.Flash), cipher)
	return vclock.NewCostDevice(crypt, s.cfg.Meter, vclock.Crypt), nil
}

// Boot probes password first as the decoy (public mount), then as a hidden
// password (hidden mount), mirroring Mobiflage/MobiPluto's boot logic.
func (s *System) Boot(password string) (*minifs.FS, bool, error) {
	pub, err := s.OpenPublic(password)
	if err == nil {
		if fs, err := minifs.Mount(pub); err == nil {
			return fs, false, nil
		}
	}
	hid, err := s.OpenHidden(password)
	if err == nil {
		if fs, err := minifs.Mount(hid); err == nil {
			return fs, true, nil
		}
	}
	return nil, false, ErrBadPassword
}
