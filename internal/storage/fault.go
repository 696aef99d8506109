package storage

import (
	"errors"
	"fmt"
)

// ErrInjected is the base error of every fault a FlakyDevice injects.
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
