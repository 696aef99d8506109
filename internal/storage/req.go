package storage

import (
	"errors"
	"fmt"
	"sync"

	"mobiceal/internal/obs"
)

// Op is a request kind. The values are the flight recorder's op codes, so
// every layer records a request's events under obs.FlightOp(r.Op).
type Op uint8

// Request kinds.
const (
	OpRead    = Op(obs.FOpRead)
	OpWrite   = Op(obs.FOpWrite)
	OpDiscard = Op(obs.FOpDiscard)
	OpSync    = Op(obs.FOpSync)
)

// String names the op as the flight recorder does: "read", "write", ...
func (o Op) String() string { return obs.FlightOp(o).String() }

// Req is the one request descriptor of the device stack — the struct bio of
// this repo. A read or write moves Vec.Len() consecutive blocks starting at
// Start through the vec's segments; a discard drops Count blocks starting
// at Start; a sync flushes the device. The caller fills Op, Start, Vec or
// Count, and FID; Do fills Done and Err.
//
// Everything that belongs to the request and not to a layer travels here:
// a layer that forwards the request forwards all of it, so request-scoped
// context cannot be lost by a layer that did not know about it.
type Req struct {
	Op    Op
	Start uint64
	// Vec carries a read's destination or a write's source segments.
	Vec BlockVec
	// Count is a discard's length in blocks.
	Count uint64
	// FID is the request's flight-recorder id (0 = untagged).
	FID uint64

	// Done is the number of blocks completed: all of them on success, the
	// completed prefix on failure, 0 when the request was not attempted
	// because an earlier one of the call failed.
	Done int
	// Err is the request's own failure, nil on success and for requests
	// that were not attempted.
	Err error
}

// Blocks returns the request's length in blocks (0 for a sync).
func (r *Req) Blocks() int {
	if r.Op == OpDiscard {
		return int(r.Count)
	}
	return r.Vec.Len()
}

// OK reports whether the request ran and completed in full.
func (r *Req) OK() bool { return r.Err == nil && r.Done == r.Blocks() }

// Doer is the one optional extension of Device: a device that takes
// request descriptors. Every stacking layer implements it as its single
// data path; a plain Device is driven through Do's fallback rungs.
//
// Contract, for implementations and callers alike:
//   - All requests of one call share an Op. A batch is the general form,
//     one request the common case.
//   - Requests of one call address disjoint block ranges and their buffers
//     do not overlap: the device may complete them in any order.
//   - On return every request's Done and Err are filled in, and the
//     returned error is that of the first failed request in request order.
//     A failed request does not stop requests submitted with it, so the
//     ones after it may or may not have landed; their Done says which.
//     Callers that need a prefix — thinp does — apply FirstFailed and treat
//     everything after it as not landed. A device that serves requests one
//     at a time (Each) stops at the failure and the prefix is exact.
//   - No reference to any request's memory outlives the call: every
//     submitted transfer has completed, successfully or not, before Do
//     returns, on every path.
//   - Segment buffers are heap memory (AlignedBuf, make): a native
//     implementation hands their addresses to the kernel for the length of
//     the call, which a goroutine stack does not survive. The request
//     slice itself crosses interface calls, so callers on a hot path keep
//     it in pooled or long-lived memory rather than on their stack.
//   - A layer that must change a request to forward it (an offset, other
//     buffers) either edits it in place and restores it before returning,
//     or forwards requests of its own and copies Done and Err back. FID is
//     always forwarded.
type Doer interface {
	Do(reqs []Req) error
}

// Do runs reqs on dev. This is the only fallback ladder in the repo:
//
//  1. a Doer takes the call whole;
//  2. a VecDevice serves reads and writes one vec call per request, in
//     request order, stopping at the first failure;
//  3. any other Device is driven block by block, a failure after k blocks
//     of a request reported as a PartialError with Done k.
//
// Below a Doer a sync is dev.Sync(), and a discard is dropped — it is
// advisory, exactly as the kernel drops REQ_OP_DISCARD for a device that
// does not advertise it. A flat buffer is a one-segment vec, so there is
// no separate rung for it.
func Do(dev Device, reqs []Req) error {
	if d, ok := dev.(Doer); ok {
		return d.Do(reqs)
	}
	vd, _ := dev.(VecDevice)
	return Each(reqs, func(one []Req) error {
		r := &one[0]
		switch r.Op {
		case OpSync:
			return dev.Sync()
		case OpDiscard:
			return nil
		case OpRead, OpWrite:
			if vd == nil {
				return doBlockwise(dev, r)
			}
			if r.Op == OpRead {
				return vd.ReadBlocksVec(r.Start, r.Vec)
			}
			return vd.WriteBlocksVec(r.Start, r.Vec)
		}
		return fmt.Errorf("storage: unknown request op %d", r.Op)
	})
}

// doBlockwise is the ladder's last rung: one ReadBlock/WriteBlock per
// block of the request.
func doBlockwise(dev Device, r *Req) error {
	bs := dev.BlockSize()
	if err := checkVecIO(r.Start, r.Vec, bs, dev.NumBlocks()); err != nil {
		return err
	}
	return r.Vec.Range(func(off int, seg []byte) error {
		for i := 0; i*bs < len(seg); i++ {
			idx, blk := r.Start+uint64(off+i), seg[i*bs:(i+1)*bs]
			var err error
			if r.Op == OpRead {
				err = dev.ReadBlock(idx, blk)
			} else {
				err = dev.WriteBlock(idx, blk)
			}
			if err != nil {
				return transferError(fmt.Errorf("storage: block %d: %w", idx, err), (off+i)*bs, bs)
			}
		}
		return nil
	})
}

// Each is Do for a device that serves one request at a time: fn runs on
// the requests in order — each handed over as a one-element slice of reqs,
// so a layer can forward the very slot it was given — until one fails.
// Each fills in Done and Err: a served request completed in full, the
// failed one completed the prefix its PartialError reports, and the ones
// after it were not attempted.
func Each(reqs []Req, fn func(one []Req) error) error {
	for i := range reqs {
		r := &reqs[i]
		if err := fn(reqs[i : i+1]); err != nil {
			r.Done, r.Err = partialDone(err), err
			for j := i + 1; j < len(reqs); j++ {
				reqs[j].Done, reqs[j].Err = 0, nil
			}
			return err
		}
		r.Done, r.Err = r.Blocks(), nil
	}
	return nil
}

// Forward is Do for a layer that passes whole batches down: the leading
// requests check accepts go to next in one call (next fills in their Done
// and Err, as the device below does); a request check refuses fails with
// check's error once the ones before it have run, and the ones after it
// are not attempted — the same prefix a serial caller would have produced.
func Forward(reqs []Req, check func(r *Req) error, next func(ok []Req) error) error {
	k := 0
	var refused error
	for k < len(reqs) {
		if refused = check(&reqs[k]); refused != nil {
			break
		}
		k++
	}
	err := next(reqs[:k])
	if k == len(reqs) {
		return err
	}
	if err == nil {
		reqs[k].Done, reqs[k].Err, err = 0, refused, refused
		k++
	}
	for ; k < len(reqs); k++ {
		reqs[k].Done, reqs[k].Err = 0, nil
	}
	return err
}

// FirstFailed returns the index of the first request of a completed call
// that carries an error, or len(reqs) when none does. It is the prefix
// rule's pivot: requests before it landed in full, the one at it landed
// its own Done blocks, and a caller that needs prefix-shaped failure
// treats the ones after it as not landed whatever their Done says.
func FirstFailed(reqs []Req) int {
	for i := range reqs {
		if reqs[i].Err != nil {
			return i
		}
	}
	return len(reqs)
}

// partialDone extracts the completed-prefix block count a failed transfer
// reported, 0 when it reported none.
func partialDone(err error) int {
	var pe *PartialError
	if errors.As(err, &pe) {
		return pe.Done
	}
	return 0
}

// checkReq validates a request against a device geometry. Zero-length
// requests are valid no-ops wherever they point.
func checkReq(r *Req, blockSize int, numBlocks uint64) error {
	if r.Op != OpDiscard {
		return checkVecIO(r.Start, r.Vec, blockSize, numBlocks)
	}
	if r.Count > 0 && (r.Start >= numBlocks || r.Count > numBlocks-r.Start) {
		return fmt.Errorf("%w: blocks [%d, %d), device has %d",
			ErrOutOfRange, r.Start, r.Start+r.Count, numBlocks)
	}
	return nil
}

// slotPool recycles the one-request slices behind the conveniences below.
// A request slice crosses interface calls on its way down, so a
// stack-backed one would be moved to the heap on every call.
var slotPool = sync.Pool{New: func() any { return new([1]Req) }}

// do1 runs one request on dev.
func do1(dev Device, r Req) error {
	s := slotPool.Get().(*[1]Req)
	s[0] = r
	err := Do(dev, s[:])
	s[0] = Req{} // the pool must not pin the caller's buffers
	slotPool.Put(s)
	return err
}

// doFlat moves a flat buffer — the empty vec for an empty buffer (a valid
// no-op), one segment otherwise.
func doFlat(d Device, op Op, start uint64, buf []byte) error {
	bs := d.BlockSize()
	if len(buf)%bs != 0 {
		return fmt.Errorf("%w: buffer of %d bytes not a multiple of %d",
			ErrBadBuffer, len(buf), bs)
	}
	v := BlockVec{bs: bs}
	if len(buf) > 0 {
		v.seg0 = buf
	}
	return do1(d, Req{Op: op, Start: start, Vec: v})
}

// DoBlock moves the single block idx of d through d's request path — how a
// stacking layer's ReadBlock and WriteBlock methods reach its own Do.
func DoBlock(d Device, op Op, idx uint64, buf []byte) error {
	bs := d.BlockSize()
	if len(buf) != bs {
		return fmt.Errorf("%w: got %d, want %d", ErrBadBuffer, len(buf), bs)
	}
	return do1(d, Req{Op: op, Start: idx, Vec: BlockVec{bs: bs, seg0: buf}})
}

// ReadBlocks reads len(dst)/BlockSize consecutive blocks of d starting at
// start into dst.
func ReadBlocks(d Device, start uint64, dst []byte) error {
	return doFlat(d, OpRead, start, dst)
}

// WriteBlocks writes src as len(src)/BlockSize consecutive blocks of d
// starting at start.
func WriteBlocks(d Device, start uint64, src []byte) error {
	return doFlat(d, OpWrite, start, src)
}

// ReadBlocksVec reads v.Len() consecutive blocks of d starting at start,
// scattered across v's segments.
func ReadBlocksVec(d Device, start uint64, v BlockVec) error {
	return do1(d, Req{Op: OpRead, Start: start, Vec: v})
}

// WriteBlocksVec writes v's segments, in order, as v.Len() consecutive
// blocks of d starting at start.
func WriteBlocksVec(d Device, start uint64, v BlockVec) error {
	return do1(d, Req{Op: OpWrite, Start: start, Vec: v})
}

// Discard TRIMs count blocks of d starting at start. It is advisory: a
// stack with no provisioning layer in it drops it.
func Discard(d Device, start, count uint64) error {
	return do1(d, Req{Op: OpDiscard, Start: start, Count: count})
}

// Sync flushes d through its request path — how a stacking layer's Sync
// method reaches its own Do.
func Sync(d Device) error {
	return do1(d, Req{Op: OpSync})
}
