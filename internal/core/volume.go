package core

import (
	"fmt"
	"sync"

	"mobiceal/internal/ioq"
	"mobiceal/internal/minifs"
	"mobiceal/internal/storage"
)

// Mode distinguishes the two operating modes of a MobiCeal device.
type Mode int

// Operating modes.
const (
	// ModePublic processes non-sensitive data on the decoy-encrypted V1.
	ModePublic Mode = iota + 1
	// ModeHidden processes sensitive data on a hidden volume.
	ModeHidden
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePublic:
		return "public"
	case ModeHidden:
		return "hidden"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Volume is an opened, decrypted view of one virtual volume. Its Device is
// the plaintext block device a file system mounts on. The Submit*/Flush
// methods (async.go) provide the asynchronous, thread-safe path into the
// same view.
type Volume struct {
	sys  *System
	id   int
	mode Mode
	dev  storage.Device

	qOnce sync.Once
	q     *ioq.VolumeQueue
}

// ID returns the thin id backing this volume (V1 for public).
func (v *Volume) ID() int { return v.id }

// Mode returns whether this is the public or a hidden volume.
func (v *Volume) Mode() Mode { return v.mode }

// Device returns the decrypted block device view.
func (v *Volume) Device() storage.Device { return v.dev }

// Format creates a fresh minifs file system on the volume.
func (v *Volume) Format() (*minifs.FS, error) {
	fs, err := minifs.Format(v.dev, 4096)
	if err != nil {
		return nil, fmt.Errorf("core: formatting %s volume: %w", v.mode, err)
	}
	return fs, nil
}

// Mount opens the volume's file system. A failed mount on the public volume
// is how the boot flow detects a wrong password (paper Sec. V-B: "If a
// valid Ext4 file system can be mounted, the password is correct").
func (v *Volume) Mount() (*minifs.FS, error) {
	fs, err := minifs.Mount(v.dev)
	if err != nil {
		return nil, fmt.Errorf("core: mounting %s volume: %w", v.mode, err)
	}
	return fs, nil
}

// OpenPublic returns the public volume decrypted under password. No
// verification happens here: with a wrong password the view decrypts to
// garbage and Mount fails, exactly like Android FDE's probe-mount.
func (s *System) OpenPublic(password string) (*Volume, error) {
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return nil, fmt.Errorf("core: deriving public key: %w", err)
	}
	cipher, err := cipherFor(key)
	if err != nil {
		return nil, err
	}
	dev, err := s.view(PublicVolumeID, cipher)
	if err != nil {
		return nil, err
	}
	return &Volume{sys: s, id: PublicVolumeID, mode: ModePublic, dev: dev}, nil
}

// OpenHidden verifies password against its derived volume's verifier block
// and, on success, returns the hidden volume (minus the verifier block) as
// a plaintext device. It fails with ErrBadPassword otherwise — the caller
// cannot distinguish "wrong password" from "there is no hidden volume",
// which is the point.
func (s *System) OpenHidden(password string) (*Volume, error) {
	id := s.footer.HiddenIndex(password)
	ok, err := s.checkVerifier(id, password)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrBadPassword
	}
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return nil, fmt.Errorf("core: deriving hidden key: %w", err)
	}
	cipher, err := cipherFor(key)
	if err != nil {
		return nil, err
	}
	crypt, err := s.view(id, cipher)
	if err != nil {
		return nil, err
	}
	// Virtual block 0 is the verifier; the file system lives from block 1.
	fsDev, err := storage.NewSliceDevice(crypt, 1, crypt.NumBlocks()-1)
	if err != nil {
		return nil, fmt.Errorf("core: hidden volume view: %w", err)
	}
	return &Volume{sys: s, id: id, mode: ModeHidden, dev: fsDev}, nil
}

// VerifyHidden reports whether password opens a hidden volume, without
// opening it — the Vold switching function's check (Sec. V-B), which
// returns -1 on mismatch.
func (s *System) VerifyHidden(password string) (int, bool) {
	id := s.footer.HiddenIndex(password)
	ok, err := s.checkVerifier(id, password)
	if err != nil || !ok {
		return -1, false
	}
	return id, true
}
