// Package android simulates the Android control plane MobiCeal modifies:
// the volume daemon (Vold) command surface, the boot flow, the screen-lock
// entrance to hidden mode, framework stop/start, and the mount table with
// the Sec. IV-D side-channel isolation (unmount public /data, /cache and
// /devlog; mount tmpfs RAM disks over the log and cache paths before the
// hidden volume appears at /data).
//
// Control-plane durations (framework restart, reboot, volume activation,
// mkfs, ...) come from the device profile and are charged to the virtual
// clock, which is how the Table II timings are produced; all storage
// operations underneath are the real implementations.
package android

import (
	"errors"
	"fmt"

	"mobiceal/internal/core"
	"mobiceal/internal/minifs"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

// Mount points and sources.
const (
	PathData   = "/data"
	PathCache  = "/cache"
	PathDevlog = "/devlog"

	SrcPublic    = "public-volume"
	SrcHidden    = "hidden-volume"
	SrcTmpfs     = "tmpfs"
	SrcCachePart = "cache-partition"
	SrcLogPart   = "log-partition"
)

// Package errors.
var (
	// ErrNotBooted reports an operation requiring a booted phone.
	ErrNotBooted = errors.New("android: phone not booted")
	// ErrWrongMode reports an operation invalid in the current mode.
	ErrWrongMode = errors.New("android: operation invalid in current mode")
	// ErrBadPassword reports a rejected password (Vold's "-1").
	ErrBadPassword = errors.New("android: bad password")
	// ErrNotInitialized reports a phone without an initialized device.
	ErrNotInitialized = errors.New("android: device not initialized")
)

// MobiCealPhone simulates a MobiCeal-enabled handset.
type MobiCealPhone struct {
	dev     storage.Device
	cfg     core.Config
	meter   *vclock.Meter
	profile vclock.Profile

	sys         *core.System
	mode        core.Mode
	booted      bool
	frameworkUp bool
	mounts      map[string]string
	dataFS      *minifs.FS
}

// NewMobiCealPhone wraps dev as a phone. MobiCeal makes no pass over the
// data area, so unlike the baseline phones it charges nothing by partition
// size, and dev can be simulation-scale.
func NewMobiCealPhone(dev storage.Device, cfg core.Config, meter *vclock.Meter) *MobiCealPhone {
	cfg.Meter = meter
	return &MobiCealPhone{
		dev:     dev,
		cfg:     cfg,
		meter:   meter,
		profile: meter.Profile(),
		mounts:  map[string]string{},
	}
}

// Initialize runs the vdc-triggered setup flow (Sec. V-B): create the
// footer and thin volumes, format the public volume, and reboot to the
// password prompt. Unlike FDE and MobiPluto, no pass over the data area is
// needed — thin volumes occupy no space until written — which is why
// MobiCeal initializes in minutes, not tens of minutes (Table II).
func (p *MobiCealPhone) Initialize(decoyPassword string, hiddenPasswords []string) error {
	sys, err := core.Setup(p.dev, p.cfg, decoyPassword, hiddenPasswords)
	if err != nil {
		return fmt.Errorf("android: mobiceal setup: %w", err)
	}
	p.meter.ChargeFixed(p.profile.FooterWriteTime)
	p.meter.ChargeFixed(p.profile.PoolCreateTime)
	for i := 0; i < sys.NumVolumes(); i++ {
		p.meter.ChargeFixed(p.profile.VolCreateTime)
	}
	vol, err := sys.OpenPublic(decoyPassword)
	if err != nil {
		return err
	}
	if _, err := vol.Format(); err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.MkfsTime)
	if err := sys.Commit(); err != nil {
		return err
	}
	// "...and reboots when complete."
	p.meter.ChargeFixed(p.profile.ShutdownTime)
	p.meter.ChargeFixed(p.profile.RebootTime)
	p.sys = nil // reboot drops all in-memory state
	p.booted, p.frameworkUp = false, false
	p.mode = 0
	p.mounts = map[string]string{}
	return nil
}

// Boot runs the measured boot window of Table II: from the decoy password
// entered at pre-boot authentication to the public volume mounted.
func (p *MobiCealPhone) Boot(password string) error {
	sys, err := core.Open(p.dev, p.cfg)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotInitialized, err)
	}
	p.meter.ChargeFixed(p.profile.PoolActivateTime)
	for i := 0; i < sys.NumVolumes(); i++ {
		p.meter.ChargeFixed(p.profile.VolActivateTime)
	}
	p.meter.ChargeFixed(p.profile.KDFTime)
	vol, err := sys.OpenPublic(password)
	if err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.DMSetupTime)
	fs, err := vol.Mount()
	if err != nil {
		return fmt.Errorf("%w: public probe mount failed", ErrBadPassword)
	}
	p.meter.ChargeFixed(p.profile.MountTime)
	p.sys = sys
	p.dataFS = fs
	p.mode = core.ModePublic
	p.booted = true
	p.mounts = map[string]string{
		PathData:   SrcPublic,
		PathCache:  SrcCachePart,
		PathDevlog: SrcLogPart,
	}
	return nil
}

// StartFramework brings up the Android framework (not part of the Table II
// boot window, but part of the switch window).
func (p *MobiCealPhone) StartFramework() error {
	if !p.booted {
		return ErrNotBooted
	}
	if !p.frameworkUp {
		p.meter.ChargeFixed(p.profile.FrameworkStart)
		p.frameworkUp = true
	}
	return nil
}

// SwitchToHidden is the fast one-way switch (Sec. IV-D, V-B/V-C): the
// hidden password is entered at the screen lock; Vold verifies it, shuts
// down the framework, unmounts /data, /cache and /devlog, mounts tmpfs RAM
// disks over the cache and log paths, mounts the hidden volume at /data,
// and restarts the framework. No reboot.
func (p *MobiCealPhone) SwitchToHidden(password string) error {
	if !p.booted || p.sys == nil {
		return ErrNotBooted
	}
	if p.mode != core.ModePublic {
		return fmt.Errorf("%w: already in %s mode", ErrWrongMode, p.mode)
	}
	if !p.frameworkUp {
		return fmt.Errorf("%w: screen lock needs the framework", ErrNotBooted)
	}
	// Step 1: verify through the screen lock -> IMountService -> Vold. A
	// wrong password returns -1 and nothing else happens.
	p.meter.ChargeFixed(p.profile.KDFTime)
	if _, ok := p.sys.VerifyHidden(password); !ok {
		return ErrBadPassword
	}
	// Step 2: shut down the framework to free /data.
	p.meter.ChargeFixed(p.profile.FrameworkStop)
	p.frameworkUp = false
	// Step 3: unmount the three leakage paths (Sec. IV-D).
	for _, path := range []string{PathData, PathCache, PathDevlog} {
		delete(p.mounts, path)
		p.meter.ChargeFixed(p.profile.MountTime)
	}
	p.dataFS = nil
	// Step 4: tmpfs RAM disks over cache and log paths.
	p.mounts[PathCache] = SrcTmpfs
	p.mounts[PathDevlog] = SrcTmpfs
	p.meter.ChargeFixed(2 * p.profile.MountTime)
	// Step 5: decrypt and mount the hidden volume as /data.
	vol, err := p.sys.OpenHidden(password)
	if err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.DMSetupTime)
	fs, err := vol.Mount()
	if err != nil {
		// First activation: the hidden volume carries no file system yet.
		fs, err = vol.Format()
		if err != nil {
			return err
		}
	}
	p.meter.ChargeFixed(p.profile.MountTime)
	p.mounts[PathData] = SrcHidden
	p.dataFS = fs
	// Step 6: restart the framework.
	p.meter.ChargeFixed(p.profile.VoldRestartExtra)
	p.meter.ChargeFixed(p.profile.FrameworkStart)
	p.frameworkUp = true
	p.mode = core.ModeHidden
	return nil
}

// ExitHidden leaves hidden mode. By design this REQUIRES a reboot — the
// only way to clear hidden-volume traces from RAM (Sec. IV-D's one-way
// fast switching) — after which the phone boots public with the decoy
// password.
func (p *MobiCealPhone) ExitHidden(decoyPassword string) error {
	if !p.booted || p.mode != core.ModeHidden {
		return fmt.Errorf("%w: not in hidden mode", ErrWrongMode)
	}
	if err := p.sys.Commit(); err != nil {
		return err
	}
	p.meter.ChargeFixed(p.profile.ShutdownTime)
	p.meter.ChargeFixed(p.profile.RebootTime)
	// Reboot wipes RAM: tmpfs contents, keys, mounts, caches.
	p.sys = nil
	p.dataFS = nil
	p.booted, p.frameworkUp = false, false
	p.mode = 0
	p.mounts = map[string]string{}
	// The exit window of Table II ends when the device is usable at the
	// decoy prompt again; the framework start that follows user-visible
	// boot is charged by an explicit StartFramework call.
	return p.Boot(decoyPassword)
}

// Mounts returns a copy of the mount table.
func (p *MobiCealPhone) Mounts() map[string]string {
	out := make(map[string]string, len(p.mounts))
	for k, v := range p.mounts {
		out[k] = v
	}
	return out
}

// DataFS returns the file system mounted at /data, or nil.
func (p *MobiCealPhone) DataFS() *minifs.FS { return p.dataFS }

// System returns the underlying MobiCeal system (nil before boot).
func (p *MobiCealPhone) System() *core.System { return p.sys }
