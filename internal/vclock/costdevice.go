package vclock

import "mobiceal/internal/storage"

// CostDevice wraps a storage.Device and charges every block read/write to a
// Meter, turning the real I/O performed by the Go implementations into
// virtual time on the experiment clock.
type CostDevice struct {
	inner storage.Device
	meter *Meter
}

// NewCostDevice wraps inner so that all traffic is charged to meter.
func NewCostDevice(inner storage.Device, meter *Meter) *CostDevice {
	return &CostDevice{inner: inner, meter: meter}
}

// Meter returns the meter traffic is charged to.
func (d *CostDevice) Meter() *Meter { return d.meter }

// BlockSize implements storage.Device.
func (d *CostDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements storage.Device.
func (d *CostDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadBlock implements storage.Device.
func (d *CostDevice) ReadBlock(idx uint64, dst []byte) error {
	return storage.DoBlock(d, storage.OpRead, idx, dst)
}

// WriteBlock implements storage.Device.
func (d *CostDevice) WriteBlock(idx uint64, src []byte) error {
	return storage.DoBlock(d, storage.OpWrite, idx, src)
}

// Sync implements storage.Device.
func (d *CostDevice) Sync() error { return storage.Sync(d) }

// Do implements storage.Doer: the call goes down whole, then every
// transfer that completed is charged block by block at consecutive
// indexes, in request order — so the meter prices a request as one seek
// plus a streaming run, the cost a merged bio pays, and the virtual-clock
// price does not depend on how a scheduler segmented or batched it, nor on
// whether the request carried a flight id.
func (d *CostDevice) Do(reqs []storage.Req) error {
	err := storage.Do(d.inner, reqs)
	bs := d.inner.BlockSize()
	for i := range reqs {
		r := &reqs[i]
		if !r.OK() || (r.Op != storage.OpRead && r.Op != storage.OpWrite) {
			continue
		}
		charge := d.meter.ChargeRead
		if r.Op == storage.OpWrite {
			charge = d.meter.ChargeWrite
		}
		for b := 0; b < r.Vec.Len(); b++ {
			charge(r.Start+uint64(b), bs)
		}
	}
	return err
}

// Close implements storage.Device.
func (d *CostDevice) Close() error { return d.inner.Close() }
