package ioq

// Future is the completion handle of one submitted request. It completes
// exactly once; Wait and Done may be used from any number of goroutines.
type Future struct {
	done chan struct{}
	err  error
	// q and r are the queue and request behind a future that entered a
	// queue (nil otherwise): Wait uses them to dispatch the request itself.
	q *VolumeQueue
	r *request
}

func newFuture() *Future {
	return &Future{done: make(chan struct{})}
}

// Wait blocks until the request completes and returns its error.
//
// A waiter whose request has not completed helps (blk-mq's issue-directly,
// taken in the waiter instead of the submitter): if one of its queue's
// dispatch slots is still on the ready list, unpulled by any worker, Wait
// takes it and runs the dispatch in the calling goroutine — its own request
// when nothing older than a barrier holds it back, otherwise the head of
// the queue, as the worker would have. The request then completes without
// a goroutine hand-off. With no unpulled slot, Wait simply blocks.
func (f *Future) Wait() error {
	if f.q != nil && !f.isDone() {
		f.q.help(f.r)
	}
	<-f.done
	return f.err
}

// isDone reports whether the future has completed, without blocking.
func (f *Future) isDone() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

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
