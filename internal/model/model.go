// Package model implements the paper's formal abstraction of a hybrid
// volume encryption scheme (Sec. III-B): a sequence of independent volumes
// {V_i}, i ∈ [1, max], each protected by a password P_i, with three
// operations —
//
//	Setup(λ, t, P, B, [n_1 … n_l])  → volumes {V_1 … V_l … V_max}
//	Read(b, i, P)                   → data d in block b of V_i, if i ≤ l
//	Write(b, d, i, P)               → stores d in block b of V_i, if i ≤ l
//
// The security game of Sec. III-C quantifies over schemes with this
// signature. This package provides the interface plus the MobiCeal
// instantiation (V_1 public, V_2..V_l hidden, the rest dummy), giving the
// adversary package and tests a direct bridge between the paper's formalism
// and the implementation.
package model

import (
	"errors"
	"fmt"

	"mobiceal/internal/core"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// Package errors.
var (
	// ErrVolumeIndex reports i outside [1, l].
	ErrVolumeIndex = errors.New("model: volume index out of range")
	// ErrBlockRange reports b outside [0, n_i).
	ErrBlockRange = errors.New("model: block out of volume range")
)

// Params carries the Setup arguments from the formal definition.
type Params struct {
	// SecurityParam is λ; it scales the KDF work.
	SecurityParam int
	// AvailableBlocks is t, the device capacity in blocks.
	AvailableBlocks uint64
	// BlockSize is B.
	BlockSize int
	// Passwords is P = {P_1 … P_l}: P_1 opens the public volume, each
	// further password opens one hidden volume. l = len(Passwords).
	Passwords []string
	// MaxVolumes is max, the total (public + hidden + dummy) volume count.
	MaxVolumes int
	// Seed makes the instantiation deterministic for experiments.
	Seed uint64
}

// Scheme is the formal hybrid volume encryption scheme interface.
type Scheme interface {
	// VolumeCount returns l, the number of password-addressable volumes.
	VolumeCount() int
	// VolumeBlocks returns n_i for volume i ∈ [1, l].
	VolumeBlocks(i int) (uint64, error)
	// Read returns block b of volume V_i.
	Read(b uint64, i int) ([]byte, error)
	// Write stores d as block b of volume V_i.
	Write(b uint64, d []byte, i int) error
}

// MobiCealScheme instantiates Scheme over a MobiCeal system: V_1 is the
// public volume and V_2..V_l are the hidden volumes in password order. The
// remaining max − l volumes exist on the device as dummies but are not
// addressable — exactly the asymmetry the deniability argument needs.
type MobiCealScheme struct {
	sys     *core.System
	dev     *storage.MemDevice
	volumes []*core.Volume // index 0 = V_1 (public)
}

var _ Scheme = (*MobiCealScheme)(nil)

// SetupMobiCeal runs the formal Setup over a fresh in-memory device.
func SetupMobiCeal(p Params) (*MobiCealScheme, error) {
	if len(p.Passwords) == 0 {
		return nil, errors.New("model: need at least the public password P_1")
	}
	if p.BlockSize == 0 {
		p.BlockSize = 4096
	}
	if p.AvailableBlocks == 0 {
		p.AvailableBlocks = 8192
	}
	if p.MaxVolumes == 0 {
		p.MaxVolumes = len(p.Passwords) + 4
	}
	if p.SecurityParam == 0 {
		p.SecurityParam = 16
	}
	dev := storage.NewMemDevice(p.BlockSize, p.AvailableBlocks)
	sys, err := core.Setup(dev, core.Config{
		NumVolumes: p.MaxVolumes,
		KDFIter:    p.SecurityParam,
		Entropy:    prng.NewSeededEntropy(p.Seed),
		Seed:       p.Seed,
		SeedSet:    true,
	}, p.Passwords[0], p.Passwords[1:])
	if err != nil {
		return nil, fmt.Errorf("model: setup: %w", err)
	}
	s := &MobiCealScheme{sys: sys, dev: dev}
	pub, err := sys.OpenPublic(p.Passwords[0])
	if err != nil {
		return nil, err
	}
	s.volumes = append(s.volumes, pub)
	for _, pwd := range p.Passwords[1:] {
		vol, err := sys.OpenHidden(pwd)
		if err != nil {
			return nil, fmt.Errorf("model: opening hidden volume: %w", err)
		}
		s.volumes = append(s.volumes, vol)
	}
	return s, nil
}

// VolumeCount implements Scheme.
func (s *MobiCealScheme) VolumeCount() int { return len(s.volumes) }

func (s *MobiCealScheme) volume(i int) (*core.Volume, error) {
	if i < 1 || i > len(s.volumes) {
		return nil, fmt.Errorf("%w: V_%d of %d", ErrVolumeIndex, i, len(s.volumes))
	}
	return s.volumes[i-1], nil
}

// VolumeBlocks implements Scheme.
func (s *MobiCealScheme) VolumeBlocks(i int) (uint64, error) {
	vol, err := s.volume(i)
	if err != nil {
		return 0, err
	}
	return vol.Device().NumBlocks(), nil
}

// Read implements Scheme.
func (s *MobiCealScheme) Read(b uint64, i int) ([]byte, error) {
	vol, err := s.volume(i)
	if err != nil {
		return nil, err
	}
	dev := vol.Device()
	if b >= dev.NumBlocks() {
		return nil, fmt.Errorf("%w: block %d of %d", ErrBlockRange, b, dev.NumBlocks())
	}
	d := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(b, d); err != nil {
		return nil, fmt.Errorf("model: Read(V_%d, %d): %w", i, b, err)
	}
	return d, nil
}

// Write implements Scheme.
func (s *MobiCealScheme) Write(b uint64, d []byte, i int) error {
	vol, err := s.volume(i)
	if err != nil {
		return err
	}
	dev := vol.Device()
	if b >= dev.NumBlocks() {
		return fmt.Errorf("%w: block %d of %d", ErrBlockRange, b, dev.NumBlocks())
	}
	if err := dev.WriteBlock(b, d); err != nil {
		return fmt.Errorf("model: Write(V_%d, %d): %w", i, b, err)
	}
	return nil
}
