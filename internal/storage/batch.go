package storage

import "errors"

// IOReq is one request of a batch: a vec transfer at its own device
// offset. The caller fills Start, Vec and FID; DoBatch fills Done and Err.
// The flight id rides in the request, so a batch needs no *Flight twin.
type IOReq struct {
	// Start is the first device block of the transfer.
	Start uint64
	// Vec carries the payload segments, exactly as for ReadBlocksVec /
	// WriteBlocksVec.
	Vec BlockVec
	// FID is the request's flight id (0 = untagged).
	FID uint64

	// Done is the number of blocks this request transferred: Vec.Len()
	// on success, the completed prefix on failure, 0 when the request was
	// not attempted because an earlier one failed.
	Done int
	// Err is the request's own failure, nil on success and for requests
	// that were not attempted.
	Err error
}

// Batcher is the optional batch extension of Device: a device that can
// put several scattered requests in flight at once and wait for them
// together. It exists for real storage, where eight scattered blocks cost
// eight device round trips when issued one after another and about one
// when issued together.
//
// DoBatch reports handled=false, with reqs untouched and no I/O issued,
// when the device cannot serve this batch natively (no submission ring, a
// wrapper whose inner device has none, a request the serial path must
// report on). The caller then runs the serial loop — storage.DoBatch does
// that. With handled=true every request's Done and Err are filled in and
// err is the error of the first failed request in request order.
//
// Contract, for implementations and callers alike:
//   - Requests of one batch address physically disjoint block ranges and
//     their buffers do not overlap: the device may complete them in any
//     order.
//   - A failed request does not stop requests that were submitted with it,
//     so requests after the first failed one may or may not have landed;
//     their Done says which. Callers that need a prefix — thinp does —
//     apply FirstFailed and treat everything after it as not landed.
//   - No reference to any request's memory outlives the call: every
//     submitted transfer has completed, successfully or not, before
//     DoBatch returns, on every path.
//   - Segment buffers are heap memory (AlignedBuf, make). A native
//     implementation hands their addresses to the kernel for the duration
//     of the call, which a goroutine stack does not survive.
type Batcher interface {
	DoBatch(write bool, reqs []IOReq) (handled bool, err error)
}

// DoBatch moves every request of reqs — reads into, or writes out of, its
// vec — and returns once all of them have completed. A device implementing
// Batcher serves the batch natively; every other device, and every batch
// the device declines, takes the serial loop below: one ReadBlocksVec /
// WriteBlocksVec per request, in request order, in the caller's goroutine,
// stopping at the first failure — the code path a caller looping over the
// vec calls itself would take, with the same device-op order. A single
// request is always served that way: there is nothing to overlap.
//
// The returned error is that of the first failed request in request order;
// see Batcher for what may be assumed about the requests after it.
func DoBatch(dev Device, write bool, reqs []IOReq) error {
	if len(reqs) > 1 {
		if b, ok := dev.(Batcher); ok {
			if handled, err := b.DoBatch(write, reqs); handled {
				return err
			}
		}
	}
	for i := range reqs {
		r := &reqs[i]
		var err error
		if write {
			err = WriteBlocksVecFlight(dev, r.FID, r.Start, r.Vec)
		} else {
			err = ReadBlocksVecFlight(dev, r.FID, r.Start, r.Vec)
		}
		if err != nil {
			r.Done, r.Err = partialDone(err), err
			for j := i + 1; j < len(reqs); j++ {
				reqs[j].Done, reqs[j].Err = 0, nil
			}
			return err
		}
		r.Done, r.Err = r.Vec.Len(), nil
	}
	return nil
}

// FirstFailed returns the index of the first request of a completed batch
// that carries an error, or len(reqs) when none does. It is the prefix
// rule's pivot: requests before it landed in full, the one at it landed
// its own Done blocks, and a caller that needs prefix-shaped failure
// treats the ones after it as not landed whatever their Done says.
func FirstFailed(reqs []IOReq) int {
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
