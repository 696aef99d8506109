// Package dm reproduces the Linux device-mapper framework surface MobiCeal
// builds on: stackable block-device targets addressed through a named
// registry (the analogue of /dev/mapper). Android FDE is dm-crypt over the
// userdata partition; MobiCeal stacks dm-crypt over dm-thin volumes
// (Fig. 1/Fig. 2). The thin-pool and thin targets live in package thinp
// and the linear target is storage.SliceDevice; this package provides the
// framework plus the crypt target.
package dm

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mobiceal/internal/storage"
)

// Registry errors.
var (
	// ErrExists reports creation of a device name that is already mapped.
	ErrExists = errors.New("dm: device name already exists")
	// ErrNotFound reports lookup of an unmapped device name.
	ErrNotFound = errors.New("dm: no such device")
)

// Registry is the named device table, the analogue of /dev/mapper plus
// dmsetup create/remove. The zero value is ready to use. Registry is safe
// for concurrent use.
type Registry struct {
	mu      sync.Mutex
	devices map[string]storage.Device
}

// Create maps name to dev. It fails with ErrExists if name is taken.
func (r *Registry) Create(name string, dev storage.Device) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.devices == nil {
		r.devices = make(map[string]storage.Device)
	}
	if _, ok := r.devices[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.devices[name] = dev
	return nil
}

// Get returns the device mapped to name.
func (r *Registry) Get(name string) (storage.Device, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dev, ok := r.devices[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return dev, nil
}

// Remove unmaps name and closes the device, the analogue of dmsetup remove.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	dev, ok := r.devices[name]
	if ok {
		delete(r.devices, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := dev.Close(); err != nil {
		return fmt.Errorf("dm: closing %q: %w", name, err)
	}
	return nil
}

// Names returns the sorted names of all mapped devices.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.devices))
	for name := range r.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
