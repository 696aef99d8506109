// Package ioq is the concurrent block-service subsystem of the MobiCeal
// reproduction: an asynchronous request scheduler in front of any
// storage.Device stack.
//
// Callers submit read/write/discard/sync requests per volume and get a
// Future back; a shared pool of workers takes requests off each volume's
// queue one per dispatch, in arrival order, hands each to the device stack
// as its own storage.Req and completes its future. A caller that Waits on
// a future whose queue has a dispatch slot no worker has pulled yet runs
// that dispatch itself — its own request, unless a barrier holds it back.
// The scheduler is the userspace analogue of the kernel's blk-mq with the
// `none` scheduler: per-volume software queues feed a
// multi-producer/multi-consumer ready list served by hardware-context-like
// workers, with no sorting or merging in between.
//
// Ordering and durability semantics (the contract a file system above
// this layer relies on):
//
//   - Requests between two barriers are unordered: up to Workers of them
//     are at the device at once and may complete in any order.
//     Overlapping in-flight requests to the same blocks have undefined
//     relative order — a caller that cares must wait the earlier future
//     before submitting the later request.
//   - Flush is a full barrier on its volume queue: every request
//     submitted to that queue before the Flush completes before the
//     device Sync executes, and every request submitted after the Flush
//     dispatches after it. A completed Flush therefore guarantees all
//     previously submitted writes are durable — on a MobiCeal volume the
//     Sync reaches thinp, where concurrent flushes from many volumes fold
//     into one group commit and a single A/B slot flip.
//   - A completed write future means the data reached the device stack
//     (the page-cache analogue), not that it is durable; durability is
//     what Flush is for.
package ioq

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// ErrClosed reports a submission to a closed scheduler.
var ErrClosed = errors.New("ioq: scheduler closed")

// ErrBarrier reports a request failed because the Flush barrier it was
// parked behind could not establish durability: the device Sync failed
// (after retries), so everything frozen behind that barrier completes with
// this error wrapping the Sync failure rather than silently proceeding
// against a device whose flush just failed.
var ErrBarrier = errors.New("ioq: flush barrier failed")

// RetryPolicy bounds the scheduler's transient-fault retry: a request that
// fails with a storage.IsTransient error is re-executed with capped
// exponential backoff. Unclassified and permanent errors never retry, so
// the policy is inert on fault-free stacks.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, first
	// attempt included. 0 selects the default (3); negative disables
	// retry entirely.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// subsequent retry. Default 500µs.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Default 10ms.
	MaxDelay time.Duration
}

func (p *RetryPolicy) fill() {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 500 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Millisecond
	}
}

// Options configures a Scheduler.
type Options struct {
	// Workers is the number of dispatch goroutines, and with it the most
	// requests of one volume at the device at once. A waiter that helps
	// (Future.Wait) dispatches with one of those same per-volume slots, so
	// the per-volume bound holds with helpers; across volumes, helping
	// waiters may add to the Workers requests the pool itself runs.
	// Workers > 1 lets different volumes, and different requests of one
	// volume, dispatch in parallel and overlaps one request's CPU work
	// with another's device latency; even at GOMAXPROCS=1 extra workers
	// keep the queue moving while one blocks in a commit.
	// Default: max(2, GOMAXPROCS).
	Workers int
	// Retry is the transient-fault retry policy. The zero value enables
	// the default policy (3 attempts, 500µs base, 10ms cap); set
	// MaxAttempts negative to disable retry.
	Retry RetryPolicy
	// Flight, when set, receives blktrace-style lifecycle events
	// (Q/G/D/C) for every request while recording is enabled. The same
	// recorder should be attached to the layers below (thinp, the data
	// StatsDevice) so one request id threads the whole stack. nil, or a
	// disabled recorder, costs one atomic load per stage hook.
	Flight *obs.FlightRecorder
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	o.Retry.fill()
}

// Scheduler owns the worker pool and the ready list of volume queues with
// pending work. One scheduler serves any number of volumes; Register each
// device once and submit through the returned VolumeQueue.
type Scheduler struct {
	opts Options

	mu     sync.Mutex
	cond   *sync.Cond
	ready  []*VolumeQueue
	closed bool
	live   int // workers not yet exited
	// queues records every registered volume queue, for system-wide
	// operations (FlushAll quiesces them all).
	queues []*VolumeQueue

	// wg counts the live workers and the helping waiters (claim).
	wg sync.WaitGroup
	// closedFlag mirrors closed for the lock-free submission-path check:
	// submit must not take the scheduler-global mutex per request.
	closedFlag atomic.Bool

	m      Metrics
	flight *obs.FlightRecorder
}

// NewScheduler starts a scheduler with opts (zero value: defaults).
func NewScheduler(opts Options) *Scheduler {
	opts.fill()
	s := &Scheduler{opts: opts, live: opts.Workers, flight: opts.Flight}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Register returns the submission queue for dev. Every volume (device
// stack) gets its own queue; the queues share the scheduler's workers.
// A registered queue is tracked for the scheduler's lifetime (Queues,
// system-wide barriers), so callers serving long-lived systems should
// register each volume once and reuse the queue rather than registering
// per handle.
func (s *Scheduler) Register(dev storage.Device) *VolumeQueue {
	s.mu.Lock()
	q := &VolumeQueue{s: s, dev: dev}
	s.queues = append(s.queues, q)
	s.mu.Unlock()
	return q
}

// Queues returns a snapshot of every registered volume queue, in
// registration order. System-level barriers iterate it.
func (s *Scheduler) Queues() []*VolumeQueue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*VolumeQueue(nil), s.queues...)
}

// Close stops the scheduler: new submissions fail with ErrClosed, already
// submitted requests are drained and completed, and the workers exit.
// Close blocks until the drain finishes, a helping waiter's dispatches
// included.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.closedFlag.Store(true)
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	return nil
}

// claim takes one of q's entries off the ready list before a worker pulls
// it, and reports whether there was one. The caller then owns that dispatch
// slot exactly as the worker that would have pulled it, so helping waiters
// never put more than Workers requests of one queue at the device. A
// successful claim joins the worker group until the caller calls
// s.wg.Done, so that Close also waits out a helper's dispatches; an entry
// on the list means a worker is live, so the group is not yet done.
func (s *Scheduler) claim(q *VolumeQueue) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range s.ready {
		if e == q {
			s.ready = slices.Delete(s.ready, i, i+1)
			s.wg.Add(1)
			return true
		}
	}
	return false
}

// enqueue puts q on the ready list and wakes one worker. It reports false
// when the scheduler has closed and every worker already exited — the
// caller must fail the stranded work itself. While any worker is live the
// enqueue is guaranteed to be drained: workers only exit under this lock,
// with the ready list observed empty.
func (s *Scheduler) enqueue(q *VolumeQueue) bool {
	s.mu.Lock()
	if s.closed && s.live == 0 {
		s.mu.Unlock()
		return false
	}
	s.ready = append(s.ready, q)
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// worker pulls ready queues and dispatches one request each. A queue that
// still has dispatchable work afterwards goes back on the TAIL of the ready
// list — round-robin by arrival order, so a saturated volume cannot starve
// the others — under the lock hold the worker needs for its next pull
// anyway, and without a signal: the worker is about to pull itself. A
// worker that wakes to find the list empty lost its entry to a helping
// waiter (Future.Wait, which claims an entry here before any worker pulls
// it) and goes back to sleep.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	var again *VolumeQueue
	for {
		s.mu.Lock()
		if again != nil {
			s.ready = append(s.ready, again)
		}
		for len(s.ready) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.ready) == 0 {
			// closed and drained
			s.live--
			s.mu.Unlock()
			return
		}
		q := s.ready[0]
		s.ready = s.ready[1:]
		s.mu.Unlock()
		again = nil
		if q.dispatch(nil) {
			again = q
		}
	}
}

// isClosed reports whether Close has been called, without touching the
// scheduler-global mutex — it sits on every submission's fast path.
func (s *Scheduler) isClosed() bool {
	return s.closedFlag.Load()
}
