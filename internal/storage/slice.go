package storage

import "fmt"

// SliceDevice exposes a contiguous sub-range of a parent device as a device
// of its own. MobiCeal's storage layout (Fig. 3) divides one physical
// partition into metadata | data | crypto footer; each region is handed to a
// different subsystem as a SliceDevice.
type SliceDevice struct {
	parent Device
	start  uint64
	length uint64
}

// NewSliceDevice returns a view of parent covering blocks
// [start, start+length). It fails if the range exceeds the parent.
func NewSliceDevice(parent Device, start, length uint64) (*SliceDevice, error) {
	if start+length < start || start+length > parent.NumBlocks() {
		return nil, fmt.Errorf("%w: slice [%d, %d) of %d-block device",
			ErrOutOfRange, start, start+length, parent.NumBlocks())
	}
	return &SliceDevice{parent: parent, start: start, length: length}, nil
}

// BlockSize implements Device.
func (d *SliceDevice) BlockSize() int { return d.parent.BlockSize() }

// NumBlocks implements Device.
func (d *SliceDevice) NumBlocks() uint64 { return d.length }

// ReadBlock implements Device.
func (d *SliceDevice) ReadBlock(idx uint64, dst []byte) error { return DoBlock(d, OpRead, idx, dst) }

// WriteBlock implements Device.
func (d *SliceDevice) WriteBlock(idx uint64, src []byte) error { return DoBlock(d, OpWrite, idx, src) }

// Sync implements Device.
func (d *SliceDevice) Sync() error { return Sync(d) }

// Do implements Doer: every request that lies inside the slice is offset
// into the parent for the length of the call and the batch goes down whole,
// so a parent that overlaps requests still sees all of them at once.
func (d *SliceDevice) Do(reqs []Req) error {
	return Forward(reqs,
		func(r *Req) error { return checkReq(r, d.BlockSize(), d.length) },
		func(ok []Req) error {
			for i := range ok {
				ok[i].Start += d.start
			}
			err := Do(d.parent, ok)
			for i := range ok {
				ok[i].Start -= d.start
			}
			return err
		})
}

// Close implements Device. Closing a slice does not close the parent: the
// parent owns the underlying resource and several slices share it.
func (d *SliceDevice) Close() error { return nil }
