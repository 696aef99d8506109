// Package fde reproduces stock Android full-disk encryption (paper Sec.
// II-A), the "Android" baseline of Fig. 4 and Table II: dm-crypt over the
// whole userdata partition, a random master key wrapped under the user
// password in the crypto footer (last 16 KB), and a probe-mount to verify
// the password at boot.
package fde

import (
	"errors"
	"fmt"

	"mobiceal/internal/dm"
	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

// ErrTooSmall reports a device without room for data plus footer.
var ErrTooSmall = errors.New("fde: device too small")

// Config configures an FDE system.
type Config struct {
	// KDFIter is the PBKDF2 iteration count (default Android 4.x's 2000).
	KDFIter int
	// Entropy supplies the master key and salts.
	Entropy prng.Entropy
	// Meter optionally charges virtual time.
	Meter *vclock.Meter
}

func (c *Config) fill() {
	if c.KDFIter == 0 {
		c.KDFIter = xcrypto.DefaultKDFIter
	}
	if c.Entropy == nil {
		c.Entropy = prng.SystemEntropy()
	}
}

// System is an FDE-enabled device.
type System struct {
	dev    storage.Device
	cfg    Config
	footer *xcrypto.Footer
	data   uint64 // data region length in blocks
}

// Setup enables encryption on dev: generates and wraps a master key and
// writes the crypto footer. The paper's Table II initialization cost (the
// in-place encryption pass over the whole partition) is charged by the
// android control-plane layer, not here.
func Setup(dev storage.Device, cfg Config, password string) (*System, error) {
	cfg.fill()
	footerBlocks := xcrypto.FooterBlocks(dev.BlockSize())
	if dev.NumBlocks() <= footerBlocks {
		return nil, fmt.Errorf("%w: %d blocks", ErrTooSmall, dev.NumBlocks())
	}
	footer, _, err := xcrypto.NewFooter(cfg.Entropy, password, 1, cfg.KDFIter)
	if err != nil {
		return nil, fmt.Errorf("fde: creating footer: %w", err)
	}
	if err := xcrypto.WriteFooter(dev, footer); err != nil {
		return nil, fmt.Errorf("fde: writing footer: %w", err)
	}
	return &System{
		dev:    dev,
		cfg:    cfg,
		footer: footer,
		data:   dev.NumBlocks() - footerBlocks,
	}, nil
}

// Open loads an FDE device from its footer.
func Open(dev storage.Device, cfg Config) (*System, error) {
	cfg.fill()
	footer, err := xcrypto.ReadFooter(dev)
	if err != nil {
		return nil, fmt.Errorf("fde: reading footer: %w", err)
	}
	return &System{
		dev:    dev,
		cfg:    cfg,
		footer: footer,
		data:   dev.NumBlocks() - xcrypto.FooterBlocks(dev.BlockSize()),
	}, nil
}

// Unlock returns the decrypted block-device view of the userdata region
// under password. As on Android, a wrong password yields a garbage view;
// the caller verifies by probe-mounting.
func (s *System) Unlock(password string) (storage.Device, error) {
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return nil, fmt.Errorf("fde: deriving key: %w", err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		return nil, fmt.Errorf("fde: building cipher: %w", err)
	}
	region, err := storage.NewSliceDevice(s.dev, 0, s.data)
	if err != nil {
		return nil, fmt.Errorf("fde: data region: %w", err)
	}
	crypt := dm.NewCrypt(vclock.NewCostDevice(region, s.cfg.Meter, vclock.Flash), cipher)
	return vclock.NewCostDevice(crypt, s.cfg.Meter, vclock.Crypt), nil
}

// Boot performs the Android boot flow: unlock with password and probe-mount
// (paper Sec. II-A / V-B). It returns the mounted file system or an error
// for a wrong password.
func (s *System) Boot(password string) (*minifs.FS, error) {
	dev, err := s.Unlock(password)
	if err != nil {
		return nil, err
	}
	fs, err := minifs.Mount(dev)
	if err != nil {
		return nil, fmt.Errorf("fde: probe mount failed (wrong password?): %w", err)
	}
	return fs, nil
}

// FormatUserdata creates a fresh file system on the unlocked device, the
// step performed once after enabling encryption.
func (s *System) FormatUserdata(password string) (*minifs.FS, error) {
	dev, err := s.Unlock(password)
	if err != nil {
		return nil, err
	}
	fs, err := minifs.Format(dev, 4096)
	if err != nil {
		return nil, fmt.Errorf("fde: formatting userdata: %w", err)
	}
	return fs, nil
}
