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

var (
	_ RangeDevice = (*SliceDevice)(nil)
	_ VecDevice   = (*SliceDevice)(nil)
	_ Batcher     = (*SliceDevice)(nil)
)

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
func (d *SliceDevice) ReadBlock(idx uint64, dst []byte) error {
	if idx >= d.length {
		return fmt.Errorf("%w: block %d, slice has %d", ErrOutOfRange, idx, d.length)
	}
	return d.parent.ReadBlock(d.start+idx, dst)
}

// WriteBlock implements Device.
func (d *SliceDevice) WriteBlock(idx uint64, src []byte) error {
	if idx >= d.length {
		return fmt.Errorf("%w: block %d, slice has %d", ErrOutOfRange, idx, d.length)
	}
	return d.parent.WriteBlock(d.start+idx, src)
}

// ReadBlocks implements RangeDevice by offsetting the range into the
// parent, preserving the parent's native vectored path.
func (d *SliceDevice) ReadBlocks(start uint64, dst []byte) error {
	if err := checkRangeIO(start, dst, d.BlockSize(), d.length); err != nil {
		return err
	}
	return ReadBlocks(d.parent, d.start+start, dst)
}

// WriteBlocks implements RangeDevice.
func (d *SliceDevice) WriteBlocks(start uint64, src []byte) error {
	if err := checkRangeIO(start, src, d.BlockSize(), d.length); err != nil {
		return err
	}
	return WriteBlocks(d.parent, d.start+start, src)
}

// ReadBlocksVec implements VecDevice by offsetting the vec into the
// parent, preserving the parent's native scatter-gather path.
func (d *SliceDevice) ReadBlocksVec(start uint64, v BlockVec) error {
	if err := checkVecIO(start, v, d.BlockSize(), d.length); err != nil {
		return err
	}
	return ReadBlocksVec(d.parent, d.start+start, v)
}

// WriteBlocksVec implements VecDevice.
func (d *SliceDevice) WriteBlocksVec(start uint64, v BlockVec) error {
	if err := checkVecIO(start, v, d.BlockSize(), d.length); err != nil {
		return err
	}
	return WriteBlocksVec(d.parent, d.start+start, v)
}

// DoBatch implements Batcher by offsetting every request into the parent
// for the duration of the call. A batch holding a request outside the
// slice is declined, so the serial path reports the error at that request
// with the ones before it executed.
func (d *SliceDevice) DoBatch(write bool, reqs []IOReq) (bool, error) {
	b, ok := d.parent.(Batcher)
	if !ok {
		return false, nil
	}
	for i := range reqs {
		if checkVecIO(reqs[i].Start, reqs[i].Vec, d.BlockSize(), d.length) != nil {
			return false, nil
		}
	}
	for i := range reqs {
		reqs[i].Start += d.start
	}
	handled, err := b.DoBatch(write, reqs)
	for i := range reqs {
		reqs[i].Start -= d.start
	}
	return handled, err
}

// DiscardRange implements Discarder by offsetting the range into the
// parent; a parent without discard support ignores it.
func (d *SliceDevice) DiscardRange(start, count uint64) error {
	if count > 0 && (start >= d.length || count > d.length-start) {
		return fmt.Errorf("%w: blocks [%d, %d) of %d-block slice",
			ErrOutOfRange, start, start+count, d.length)
	}
	return Discard(d.parent, d.start+start, count)
}

// Sync implements Device.
func (d *SliceDevice) Sync() error { return d.parent.Sync() }

// Close implements Device. Closing a slice does not close the parent: the
// parent owns the underlying resource and several slices share it.
func (d *SliceDevice) Close() error { return nil }

// Start returns the slice's first block index on the parent device.
func (d *SliceDevice) Start() uint64 { return d.start }
