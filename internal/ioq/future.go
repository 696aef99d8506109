package ioq

// Future is the completion handle of one submitted request. It completes
// exactly once; Wait and Done may be used from any number of goroutines.
type Future struct {
	done chan struct{}
	err  error
}

func newFuture() *Future {
	return &Future{done: make(chan struct{})}
}

// Wait blocks until the request completes and returns its error.
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Done returns a channel closed when the request completes, for use in
// select loops. After Done is closed, Wait returns immediately.
func (f *Future) Done() <-chan struct{} { return f.done }

// complete resolves the future. Must be called exactly once; the close
// publishes err to every waiter.
func (f *Future) complete(err error) {
	f.err = err
	close(f.done)
}

// WaitAll waits every future and returns the first error encountered.
func WaitAll(futures ...*Future) error {
	var first error
	for _, f := range futures {
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
