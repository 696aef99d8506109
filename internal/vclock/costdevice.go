package vclock

import "mobiceal/internal/storage"

// CostDevice is the virtual testbed's one charging site: it wraps a layer of
// the stack and, after every call, prices the requests that completed by its
// Rule. The stack itself knows nothing of the testbed; a metered experiment
// wraps each layer it prices — the flash under the pool, the thin views, the
// crypt views — and an unmetered one wraps nothing.
type CostDevice struct {
	inner storage.Device
	meter *Meter
	rule  Rule
}

// A Rule prices one completed call on a CostDevice: the requests as they came
// back, with Done and Err set, on a device of block size bs. Every rule
// charges only completed requests, by block and byte counts, so the price of
// a call does not depend on how a scheduler segmented or batched it, nor on
// whether it carried a flight id.
type Rule func(m *Meter, reqs []storage.Req, bs int)

// NewCostDevice wraps inner so that its traffic is charged to meter by rule.
// With a nil meter there is nothing to charge, and inner comes back as it is.
func NewCostDevice(inner storage.Device, meter *Meter, rule Rule) storage.Device {
	if meter == nil {
		return inner
	}
	return &CostDevice{inner: inner, meter: meter, rule: rule}
}

// Flash is the rule of the storage medium: every block of a completed read
// or write is charged at consecutive indexes, in request order — so the
// meter prices a request as one seek plus a streaming run, the cost a merged
// bio pays.
func Flash(m *Meter, reqs []storage.Req, bs int) {
	for i := range reqs {
		r := &reqs[i]
		if !r.OK() || (r.Op != storage.OpRead && r.Op != storage.OpWrite) {
			continue
		}
		charge := m.ChargeRead
		if r.Op == storage.OpWrite {
			charge = m.ChargeWrite
		}
		for b := 0; b < r.Vec.Len(); b++ {
			charge(r.Start+uint64(b), bs)
		}
	}
}

// Thin is the rule of the thin target: a completed read or write pays one
// traversal per block (Sec. VI-B attributes stock thin provisioning's read
// cost to exactly this added layer). Discards and syncs are metadata-only
// and pay nothing.
func Thin(m *Meter, reqs []storage.Req, _ int) {
	for i := range reqs {
		r := &reqs[i]
		if r.OK() && (r.Op == storage.OpRead || r.Op == storage.OpWrite) {
			traverse(m, r)
		}
	}
}

// Crypt is the rule of the crypt target: a completed read or write pays its
// crypto bytes once, and every completed request but a sync pays one
// traversal per block. A discard carries no payload to encrypt.
func Crypt(m *Meter, reqs []storage.Req, _ int) {
	for i := range reqs {
		r := &reqs[i]
		if !r.OK() || r.Op == storage.OpSync {
			continue
		}
		if r.Op != storage.OpDiscard {
			m.ChargeCrypto(r.Vec.Bytes())
		}
		traverse(m, r)
	}
}

// traverse charges one target traversal per block of r, at the read price
// for a read and the write price otherwise.
func traverse(m *Meter, r *storage.Req) {
	charge := m.ChargeTraversalWrite
	if r.Op == storage.OpRead {
		charge = m.ChargeTraversalRead
	}
	for n := r.Blocks(); n > 0; n-- {
		charge()
	}
}

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

// Do implements storage.Doer: the call goes down whole, then the rule prices
// what completed.
func (d *CostDevice) Do(reqs []storage.Req) error {
	err := storage.Do(d.inner, reqs)
	d.rule(d.meter, reqs, d.inner.BlockSize())
	return err
}

// Close implements storage.Device.
func (d *CostDevice) Close() error { return d.inner.Close() }
