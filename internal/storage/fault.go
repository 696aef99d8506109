package storage

import (
	"errors"
	"fmt"
	"sync"

	"mobiceal/internal/obs"
)

// ErrInjected is the base error returned by FaultDevice failures.
var ErrInjected = errors.New("storage: injected fault")

// PartialError reports a transfer that a fault interrupted
// after a prefix of the range had already transferred — the partial
// completion a real controller reports when it dies mid-request. It wraps
// the underlying fault, so errors.Is(err, ErrInjected) still holds.
type PartialError struct {
	// Done counts the blocks transferred before the fault struck.
	Done int
	// Err is the underlying injected fault.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%v (after %d blocks completed)", e.Err, e.Done)
}

// Unwrap implements errors.Unwrap.
func (e *PartialError) Unwrap() error { return e.Err }

// failAfter is the tail of an injected mid-transfer fault: the first done
// blocks of the transfer in one go to inner, and the request fails with
// ferr as a PartialError carrying that count.
func failAfter(inner Device, one []Req, done int, ferr error) error {
	if done > 0 {
		r := &one[0]
		whole := r.Vec
		r.Vec = whole.Slice(0, done)
		err := Do(inner, one)
		r.Vec = whole
		if err != nil {
			return err
		}
	}
	return &PartialError{Done: done, Err: ferr}
}

// FaultDevice wraps a Device and fails operations on demand, for testing
// error propagation through the storage stack (a flash controller going bad
// mid-write is a survivable event the upper layers must report cleanly, not
// corrupt state over).
//
// Faults are armed with FailReadsAfter/FailWritesAfter: the n-th subsequent
// operation of that kind and all later ones fail until the counter is
// re-armed. FaultDevice is safe for concurrent use.
type FaultDevice struct {
	inner Device

	mu sync.Mutex
	// budget is indexed by Op: reads, writes and syncs are armed apart.
	budget [OpSync + 1]struct {
		armed  bool
		left   int
		failed uint64
	}
	class error
}

// NewFaultDevice wraps inner with fault injection disarmed.
func NewFaultDevice(inner Device) *FaultDevice {
	return &FaultDevice{inner: inner}
}

// FailReadsAfter arms read failures: the next n reads succeed, everything
// after fails with ErrInjected.
func (d *FaultDevice) FailReadsAfter(n int) { d.arm(OpRead, n) }

// arm gives op a budget of n units before it starts failing.
func (d *FaultDevice) arm(op Op, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.budget[op].armed, d.budget[op].left = true, n
}

// FailWritesAfter arms write failures: the next n writes succeed,
// everything after fails with ErrInjected.
func (d *FaultDevice) FailWritesAfter(n int) { d.arm(OpWrite, n) }

// FailSyncsAfter arms sync failures: the next n Sync calls succeed,
// everything after fails with ErrInjected. Unlike reads/writes, the sync
// budget is per call, not per block.
func (d *FaultDevice) FailSyncsAfter(n int) { d.arm(OpSync, n) }

// SetErrorClass attaches a classification sentinel (ErrTransient or
// ErrMedium) to every subsequently injected fault, so errors.Is sees both
// ErrInjected and the class. nil (the default) injects unclassified
// faults, which upper layers treat as permanent.
func (d *FaultDevice) SetErrorClass(class error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.class = class
}

// errf builds an injected fault, folding in the armed error class.
// Caller holds d.mu.
func (d *FaultDevice) errf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if d.class != nil {
		return fmt.Errorf("%w (%w): %s", ErrInjected, d.class, msg)
	}
	return fmt.Errorf("%w: %s", ErrInjected, msg)
}

// Disarm clears all pending faults.
func (d *FaultDevice) Disarm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for op := range d.budget {
		d.budget[op].armed = false
	}
}

// InjectedFailures reports how many reads and writes were failed.
func (d *FaultDevice) InjectedFailures() (reads, writes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.budget[OpRead].failed, d.budget[OpWrite].failed
}

// BlockSize implements Device.
func (d *FaultDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements Device.
func (d *FaultDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadBlock implements Device.
func (d *FaultDevice) ReadBlock(idx uint64, dst []byte) error { return DoBlock(d, OpRead, idx, dst) }

// WriteBlock implements Device.
func (d *FaultDevice) WriteBlock(idx uint64, src []byte) error { return DoBlock(d, OpWrite, idx, src) }

// Sync implements Device.
func (d *FaultDevice) Sync() error { return Sync(d) }

// Do implements Doer, one request at a time. A transfer consumes one unit
// of the armed budget per block, and the failure is block-granular: a
// request that exhausts the budget mid-transfer completes exactly the
// blocks the budget covered — which may end in the middle of a segment —
// and fails with a PartialError carrying that count, the way a controller
// dying mid-request leaves a prefix transferred. The failure consumes the
// rest of the budget: once the device has failed, all later requests of
// that kind fail too. An armed sync budget is per call and fails the sync
// without reaching the inner device, the way a flush command times out at
// a dying controller before any durability is established.
func (d *FaultDevice) Do(reqs []Req) error {
	return Each(reqs, func(one []Req) error {
		r := &one[0]
		if r.Op == OpDiscard || int(r.Op) >= len(d.budget) {
			return Do(d.inner, one) // no budget of its own
		}
		n := r.Blocks()
		if r.Op == OpSync {
			n = 1 // the sync budget is per call
		}
		d.mu.Lock()
		b := &d.budget[r.Op]
		if !b.armed || b.left >= n {
			if b.armed {
				b.left -= n
			}
			d.mu.Unlock()
			return Do(d.inner, one)
		}
		done := b.left
		b.left = 0
		b.failed++
		ferr := d.errf("%v of %d blocks at %d (failure %d)", obs.FlightOp(r.Op), r.Blocks(), r.Start, b.failed)
		d.mu.Unlock()
		if r.Op == OpSync {
			return ferr
		}
		return failAfter(d.inner, one, done, ferr)
	})
}

// Close implements Device.
func (d *FaultDevice) Close() error { return d.inner.Close() }
