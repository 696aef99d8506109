package android

import (
	"fmt"

	"mobiceal/internal/baseline/fde"
	"mobiceal/internal/baseline/mobipluto"
	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

// FDEPhone simulates a stock Android FDE handset, the Table II baseline
// row.
type FDEPhone struct {
	dev          storage.Device
	meter        *vclock.Meter
	profile      vclock.Profile
	nominalBytes uint64
	entropy      prng.Entropy
	kdfIter      int

	sys    *fde.System
	booted bool
	dataFS *minifs.FS
}

// NewFDEPhone wraps dev as an FDE phone.
func NewFDEPhone(dev storage.Device, meter *vclock.Meter, nominalBytes uint64, entropy prng.Entropy, kdfIter int) *FDEPhone {
	return &FDEPhone{
		dev:          dev,
		meter:        meter,
		profile:      meter.Profile(),
		nominalBytes: nominalBytes,
		entropy:      entropy,
		kdfIter:      kdfIter,
	}
}

// Initialize enables FDE: Android encrypts the existing userdata partition
// in place — a full read + encrypt + write pass over the partition, the
// dominant cost in its Table II initialization time — then reboots.
func (p *FDEPhone) Initialize(password string) error {
	sys, err := fde.Setup(p.dev, fde.Config{
		KDFIter: p.kdfIter,
		Entropy: p.entropy,
		Meter:   p.meter,
	}, password)
	if err != nil {
		return fmt.Errorf("android: fde setup: %w", err)
	}
	p.meter.ChargeFixed(p.profile.FooterWriteTime)
	// In-place encryption pass at nominal partition size.
	p.meter.ChargeSeqRead(p.nominalBytes)
	p.meter.ChargeCrypto(int(p.nominalBytes))
	p.meter.ChargeSeqWrite(p.nominalBytes)
	if _, err := sys.FormatUserdata(password); err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.ShutdownTime)
	p.meter.ChargeFixed(p.profile.RebootTime)
	p.sys = nil
	p.booted = false
	return nil
}

// Boot is the measured FDE boot window: KDF, dm-crypt setup, probe mount.
func (p *FDEPhone) Boot(password string) error {
	sys, err := fde.Open(p.dev, fde.Config{
		KDFIter: p.kdfIter,
		Entropy: p.entropy,
		Meter:   p.meter,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotInitialized, err)
	}
	p.meter.ChargeFixed(p.profile.KDFTime)
	p.meter.ChargeFixed(p.profile.DMSetupTime)
	fs, err := sys.Boot(password)
	if err != nil {
		return fmt.Errorf("%w: probe mount failed", ErrBadPassword)
	}
	p.meter.ChargeFixed(p.profile.MountTime)
	p.sys = sys
	p.dataFS = fs
	p.booted = true
	return nil
}

// MobiPlutoPhone simulates a MobiPluto handset, the Table II comparison
// row. Mode switching requires a full reboot.
type MobiPlutoPhone struct {
	dev          storage.Device
	meter        *vclock.Meter
	profile      vclock.Profile
	nominalBytes uint64
	entropy      prng.Entropy
	kdfIter      int

	sys    *mobipluto.System
	booted bool
	hidden bool
	dataFS *minifs.FS
}

// NewMobiPlutoPhone wraps dev as a MobiPluto phone.
func NewMobiPlutoPhone(dev storage.Device, meter *vclock.Meter, nominalBytes uint64, entropy prng.Entropy, kdfIter int) *MobiPlutoPhone {
	return &MobiPlutoPhone{
		dev:          dev,
		meter:        meter,
		profile:      meter.Profile(),
		nominalBytes: nominalBytes,
		entropy:      entropy,
		kdfIter:      kdfIter,
	}
}

// Initialize sets up MobiPluto: the dominant cost is filling the whole
// partition with randomness (charged at the nominal size), then pool and
// volume creation, mkfs, reboot.
func (p *MobiPlutoPhone) Initialize(decoyPassword string) error {
	sys, err := mobipluto.Setup(p.dev, mobipluto.Config{
		KDFIter:          p.kdfIter,
		Entropy:          p.entropy,
		Meter:            p.meter,
		NominalFillBytes: p.nominalBytes,
	}, decoyPassword)
	if err != nil {
		return fmt.Errorf("android: mobipluto setup: %w", err)
	}
	p.meter.ChargeFixed(p.profile.FooterWriteTime)
	p.meter.ChargeFixed(p.profile.PoolCreateTime)
	p.meter.ChargeFixed(p.profile.VolCreateTime)
	pub, err := sys.OpenPublic(decoyPassword)
	if err != nil {
		return err
	}
	if _, err := minifs.Format(pub, 4096); err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.MkfsTime)
	if err := sys.Pool().Commit(); err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.ShutdownTime)
	p.meter.ChargeFixed(p.profile.RebootTime)
	p.sys = nil
	p.booted = false
	return nil
}

// Boot is the measured MobiPluto boot window: pool activation, KDF,
// dm-crypt setup, probe mounts (public first, then hidden).
func (p *MobiPlutoPhone) Boot(password string) error {
	sys, err := mobipluto.Open(p.dev, mobipluto.Config{
		KDFIter: p.kdfIter,
		Entropy: p.entropy,
		Meter:   p.meter,
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotInitialized, err)
	}
	p.meter.ChargeFixed(p.profile.PoolActivateTime)
	p.meter.ChargeFixed(p.profile.VolActivateTime)
	p.meter.ChargeFixed(p.profile.KDFTime)
	p.meter.ChargeFixed(p.profile.DMSetupTime)
	fs, hidden, err := sys.Boot(password)
	if err != nil {
		return fmt.Errorf("%w: no volume mounts", ErrBadPassword)
	}
	p.meter.ChargeFixed(p.profile.MountTime)
	p.sys = sys
	p.dataFS = fs
	p.hidden = hidden
	p.booted = true
	return nil
}

// SwitchToHidden on MobiPluto means: reboot and enter the hidden password
// at pre-boot authentication — the slow path MobiCeal's fast switch
// replaces (Table II: 68 s vs 9.3 s).
func (p *MobiPlutoPhone) SwitchToHidden(hiddenPassword string) error {
	if !p.booted {
		return ErrNotBooted
	}
	p.meter.ChargeFixed(p.profile.ShutdownTime)
	p.meter.ChargeFixed(p.profile.RebootTime)
	p.sys = nil
	p.booted = false
	p.dataFS = nil
	return p.Boot(hiddenPassword)
}

// ExitHidden reboots back into public mode.
func (p *MobiPlutoPhone) ExitHidden(decoyPassword string) error {
	if !p.booted || !p.hidden {
		return fmt.Errorf("%w: not in hidden mode", ErrWrongMode)
	}
	p.meter.ChargeFixed(p.profile.ShutdownTime)
	p.meter.ChargeFixed(p.profile.RebootTime)
	p.sys = nil
	p.booted = false
	p.dataFS = nil
	return p.Boot(decoyPassword)
}

// HiddenDevice exposes the decrypted hidden volume for out-of-band
// preparation (first-use formatting), as MobiPluto does when the hidden
// volume is created.
func (p *MobiPlutoPhone) HiddenDevice(password string) (storage.Device, error) {
	if p.sys == nil {
		return nil, ErrNotBooted
	}
	return p.sys.OpenHidden(password)
}
