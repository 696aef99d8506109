// Package dm reproduces the one Linux device-mapper target MobiCeal adds
// to the stack above the thin pool: the crypt target. Android FDE is
// dm-crypt over the userdata partition; MobiCeal stacks dm-crypt over
// dm-thin volumes (Fig. 1/Fig. 2). The thin-pool and thin targets live in
// package thinp and the linear target is storage.SliceDevice.
package dm

import (
	"fmt"
	"sync"

	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

// Crypt is the dm-crypt target: a transparent encrypted view of an
// underlying device. Block index doubles as the cipher sector number
// ("plain64" IV convention at block granularity). Every volume in MobiCeal
// — public, hidden — is a Crypt over a thin volume; Android FDE is a Crypt
// over the raw partition.
type Crypt struct {
	inner  storage.Device
	cipher *xcrypto.XTS
	// bs is inner's block size, read once rather than down the stack per
	// request.
	bs int
	// scratch holds reusable ciphertext buffers (the target's mempool in
	// kernel terms) and twins the request lists they travel in, so the
	// write path does not allocate per request.
	scratch storage.AlignedPool
	twins   sync.Pool
}

// ctTwin is the ciphertext side of one write call: for every plaintext
// request a request of the same shape over pooled buffers.
type ctTwin struct {
	reqs []storage.Req
	segs [][]byte
}

// NewCrypt layers cipher over inner.
func NewCrypt(inner storage.Device, cipher *xcrypto.XTS) *Crypt {
	return &Crypt{inner: inner, cipher: cipher, bs: inner.BlockSize()}
}

// BlockSize implements storage.Device.
func (c *Crypt) BlockSize() int { return c.bs }

// NumBlocks implements storage.Device.
func (c *Crypt) NumBlocks() uint64 { return c.inner.NumBlocks() }

// ReadBlock implements storage.Device.
func (c *Crypt) ReadBlock(idx uint64, dst []byte) error {
	return storage.DoBlock(c, storage.OpRead, idx, dst)
}

// WriteBlock implements storage.Device.
func (c *Crypt) WriteBlock(idx uint64, src []byte) error {
	return storage.DoBlock(c, storage.OpWrite, idx, src)
}

// Sync implements storage.Device.
func (c *Crypt) Sync() error { return storage.Sync(c) }

// Do implements storage.Doer. A read goes down as it came — ciphertext
// lands straight in the caller's segments — and is decrypted in place, no
// intermediate buffer at all. A write goes down as its ciphertext twin:
// each plaintext segment is encrypted into a same-sized pooled segment, so
// the inner device (a thin volume) sees the original segmentation and the
// caller's buffers are never modified. Syncs and discards carry no data to
// encrypt and pass straight through (dm-crypt likewise forwards discards
// when allow_discards is set). The security note from the kernel applies
// here too — discard patterns are visible to an adversary below the crypt
// layer — which is exactly MobiCeal's threat model: block-level allocation
// state is public, and deniability rests on dummy writes, not on hiding
// discards.
func (c *Crypt) Do(reqs []storage.Req) error {
	bs := c.bs
	var ct *ctTwin
	err := storage.Forward(reqs,
		func(r *storage.Req) error {
			if r.Vec.Segments() > 0 && r.Vec.BlockSize() != bs {
				return storage.ErrBadBuffer
			}
			if r.Op != storage.OpWrite {
				return nil
			}
			if ct == nil {
				ct, _ = c.twins.Get().(*ctTwin)
				if ct == nil {
					ct = new(ctTwin)
				}
			}
			return c.encrypt(ct, r, bs)
		},
		func(ok []storage.Req) error {
			if ct == nil {
				return c.decrypt(ok, storage.Do(c.inner, ok), bs)
			}
			err := storage.Do(c.inner, ct.reqs[:len(ok)])
			for i := range ok {
				ok[i].Done, ok[i].Err = ct.reqs[i].Done, ct.reqs[i].Err
			}
			return err
		})
	if ct != nil {
		for _, seg := range ct.segs {
			c.scratch.Put(seg)
		}
		clear(ct.reqs)
		clear(ct.segs)
		ct.reqs, ct.segs = ct.reqs[:0], ct.segs[:0]
		c.twins.Put(ct)
	}
	return err
}

// encrypt appends r's ciphertext twin to ct.
func (c *Crypt) encrypt(ct *ctTwin, r *storage.Req, bs int) error {
	first := len(ct.segs)
	idx := r.Start
	err := r.Vec.Range(func(_ int, seg []byte) error {
		out := c.scratch.Get(len(seg))
		ct.segs = append(ct.segs, out)
		for i := 0; i*bs < len(seg); i++ {
			if err := c.cipher.EncryptSector(idx, out[i*bs:(i+1)*bs], seg[i*bs:(i+1)*bs]); err != nil {
				return fmt.Errorf("dm: encrypting block %d: %w", idx, err)
			}
			idx++
		}
		return nil
	})
	if err != nil {
		return err
	}
	twin := *r
	twin.Vec = storage.Vec(bs, ct.segs[first:]...)
	ct.reqs = append(ct.reqs, twin)
	return nil
}

// decrypt turns the reads of a completed call into plaintext, in place. A
// read that failed below keeps whatever ciphertext arrived.
func (c *Crypt) decrypt(ok []storage.Req, err error, bs int) error {
	for i := range ok {
		r := &ok[i]
		if r.Op != storage.OpRead || !r.OK() {
			continue
		}
		idx := r.Start
		derr := r.Vec.Range(func(_ int, seg []byte) error {
			for i := 0; i*bs < len(seg); i++ {
				if err := c.cipher.DecryptSector(idx, seg[i*bs:(i+1)*bs], seg[i*bs:(i+1)*bs]); err != nil {
					return fmt.Errorf("dm: decrypting block %d: %w", idx, err)
				}
				idx++
			}
			return nil
		})
		if derr != nil {
			r.Done, r.Err = 0, derr
		}
	}
	if k := storage.FirstFailed(ok); k < len(ok) {
		return ok[k].Err
	}
	return err
}

// Close implements storage.Device. Closing the crypt view does not close
// the underlying device: tearing down a dm device leaves the partition.
func (c *Crypt) Close() error { return nil }
