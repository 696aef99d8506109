package ioq

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mobiceal/internal/obs"
	"mobiceal/internal/spin"
	"mobiceal/internal/storage"
)

// opQuiesce is the scheduler's one request kind that is not a device
// operation: a dispatch barrier without a device Sync. It completes once
// every older request of its queue has drained, and nothing submitted after
// it dispatches before it completes. System-level flush-all uses it to
// quiesce every volume, then issue ONE sync covering all of them instead of
// one per queue. It never reaches storage.Do.
const opQuiesce = storage.Op(obs.FOpQuiesce)

// isBarrier reports whether op freezes the queue like a barrier.
func isBarrier(op storage.Op) bool { return op == storage.OpSync || op == opQuiesce }

// request is one queued operation.
type request struct {
	// io is the request as the device stack sees it — kind, start, the
	// caller's buffer as a one-segment vec (untouched by the scheduler until
	// the request executes) or the discard count, and the flight id assigned
	// at submission (0 when recording was off). It is an array so that
	// dispatch hands io[:] to storage.Do without building anything.
	io [1]storage.Req
	// f is the request's future, allocated with it; submit hands out &f.
	f Future
	// submitNS and dispatchNS are obs.NowNS stamps of the request's
	// life-cycle edges. submitNS is 0 for requests rejected before
	// entering a queue; dispatchNS is 0 for requests never handed to a
	// worker (purged on close or behind a failed barrier). Only the
	// goroutine currently owning the request touches them: submit writes
	// submitNS before publishing, the dispatching worker writes dispatchNS
	// at the hand-out.
	submitNS   int64
	dispatchNS int64
}

// newRequest builds a request of q around its device-stack form.
func (q *VolumeQueue) newRequest(io storage.Req) *request {
	r := &request{io: [1]storage.Req{io}}
	r.f = Future{done: make(chan struct{}), q: q, r: r}
	return r
}

// op and fid read the request's device-stack form.
func (r *request) op() storage.Op { return r.io[0].Op }
func (r *request) fid() uint64    { return r.io[0].FID }

// VolumeQueue is the per-volume submission queue: submissions append under
// the queue lock, and each dispatch hands the oldest request to a worker.
// Sync requests are dispatch barriers — a sync leaves the queue only when
// it is the oldest request and nothing of this volume is in flight, and
// requests behind it wait until it completes.
type VolumeQueue struct {
	s   *Scheduler
	dev storage.Device

	mu      sync.Mutex
	pending []*request
	// inflight counts requests handed out to a worker and not yet
	// completed.
	inflight int
	// syncActive marks a barrier's Sync as in flight: nothing else of
	// this queue may dispatch until it completes — requests submitted
	// after a Flush must not reach the device while the barrier's Sync
	// is still running.
	syncActive bool
	// slots counts this queue's dispatches outstanding — listed slots plus
	// dispatch calls running, by a worker or by a helping waiter that
	// claimed a listed slot. Submissions take slots (at most Workers); a
	// slot is given back when a dispatch ends with nothing dispatchable, or
	// by a helper whose queue's other slots cover the backlog. Whenever
	// work is dispatchable at least one slot is out, so no request is ever
	// stranded.
	slots int
	// listed counts the slots no worker has pulled and no helper has
	// claimed yet. While it is positive, onList is set: the queue has one
	// entry on the scheduler's ready list, or a live worker has just taken
	// that entry and is about to pull (pull clears onList when it finds
	// nothing listed). A helper claims under q.mu alone, so a waiter that
	// helps never takes the scheduler's lock.
	listed int
	onList bool
}

// SubmitRead asynchronously reads blocks [start, start+len(dst)/bs) into
// dst. dst must stay untouched by the caller until the future completes.
// A dst that is not a whole number of blocks fails immediately, before it
// enters the queue.
func (q *VolumeQueue) SubmitRead(start uint64, dst []byte) *Future {
	return q.submitIO(storage.OpRead, start, dst)
}

// SubmitWrite asynchronously writes src as blocks [start,
// start+len(src)/bs). src must stay stable until the future completes.
// Misaligned buffers are rejected at submission, like SubmitRead.
func (q *VolumeQueue) SubmitWrite(start uint64, src []byte) *Future {
	return q.submitIO(storage.OpWrite, start, src)
}

// SubmitDiscard asynchronously TRIMs blocks [start, start+count).
// Devices without discard support complete it as a no-op.
func (q *VolumeQueue) SubmitDiscard(start, count uint64) *Future {
	return q.submit(q.newRequest(storage.Req{Op: storage.OpDiscard, Start: start, Count: count}))
}

// submitIO queues a transfer of buf, which becomes the request's one
// segment. A buffer that is not block-aligned completes failed at once.
func (q *VolumeQueue) submitIO(op storage.Op, start uint64, buf []byte) *Future {
	bs := q.dev.BlockSize()
	if len(buf)%bs != 0 {
		f := newFuture()
		f.complete(fmt.Errorf("%w: request buffer %d not a multiple of %d",
			storage.ErrBadBuffer, len(buf), bs))
		return f
	}
	v := storage.Vec(bs) // a zero-length request is a valid no-op
	if len(buf) > 0 {
		v = storage.VecOne(bs, buf)
	}
	return q.submit(q.newRequest(storage.Req{Op: op, Start: start, Vec: v}))
}

// Flush submits a sync barrier: its future completes after every request
// submitted before it has completed and the device stack's Sync has run
// (on a MobiCeal volume: data flushed and pool metadata group-committed).
func (q *VolumeQueue) Flush() *Future {
	return q.submit(q.newRequest(storage.Req{Op: storage.OpSync}))
}

// Quiesce submits a drain barrier: its future completes once every request
// submitted before it has completed, WITHOUT running the device stack's
// Sync. Callers coordinating several queues (System.FlushAll) quiesce them
// all, then fold the whole system's durability into a single sync instead
// of paying one per queue.
func (q *VolumeQueue) Quiesce() *Future {
	return q.submit(q.newRequest(storage.Req{Op: opQuiesce}))
}

func (q *VolumeQueue) submit(r *request) *Future {
	if q.s.isClosed() {
		// Counted as a submission so the closed-scheduler rejection shows
		// up in Submitted/Completed/Failures like any other outcome; the
		// request never entered a queue (submitNS stays 0), so no gauge or
		// histogram moves.
		q.s.m.Submitted.Inc()
		q.finish(r, ErrClosed)
		return &r.f
	}
	r.submitNS = obs.NowNS()
	if rec := q.s.flight; rec.Enabled() {
		// Q: the request enters the queue. The id assigned here is the one
		// every later stage — scheduler, thinp, leaf device — records under.
		r.io[0].FID = rec.NextID()
		q.record(r, obs.StageQueued, obs.ClassNone, 0)
	}
	q.s.m.Submitted.Inc()
	spin.Lock(&q.mu)
	q.pending = append(q.pending, r)
	// A submission takes a slot, lists it and wakes a worker, one wake per
	// submission; its waiter may claim the slot first (help). A worker that
	// finds more work at the end of a dispatch lists its slot again itself
	// (Scheduler.worker) and wakes nobody; only a helper that ran out of
	// budget hands a slot back with a wake.
	wake := q.slots < q.s.opts.Workers && q.dispatchableLocked()
	var rest []*request
	if wake {
		if q.list() {
			q.slots++
		} else {
			// The scheduler closed and its workers exited between the
			// closed check and the wake: nothing will ever drain this
			// queue again, so fail everything still pending (a request a
			// helping waiter has in flight completes on its own).
			wake, rest, q.pending = false, q.pending, nil
		}
	}
	q.mu.Unlock()
	if wake {
		q.s.cond.Signal()
	}
	for _, p := range rest {
		q.finish(p, ErrClosed)
	}
	return &r.f
}

// list adds one slot to the listed ones, putting the queue on the
// scheduler's ready list if it is not there. It reports false, listing
// nothing, when no worker is left to pull it (Scheduler.list). Caller holds
// q.mu; the slot is already counted in slots, or is about to be.
func (q *VolumeQueue) list() bool {
	if !q.onList {
		if !q.s.list(q) {
			return false
		}
		q.onList = true
	}
	q.listed++
	return true
}

// pull takes one listed slot for a worker that has just taken q's entry
// off the ready list, and reports whether there was one: helpers may have
// claimed them all, and the worker then goes back to sleep. When slots stay
// listed, the entry goes back on the ready list for another worker.
func (q *VolumeQueue) pull() bool {
	spin.Lock(&q.mu)
	if q.listed == 0 {
		q.onList = false
		q.mu.Unlock()
		return false
	}
	q.listed--
	more := q.listed > 0
	if more {
		q.s.list(q) // cannot fail: the calling worker is live
	} else {
		q.onList = false
	}
	q.mu.Unlock()
	if more {
		q.s.cond.Signal()
	}
	return true
}

// claim takes one of q's listed slots before a worker pulls it, and
// reports whether there was one. The caller then owns that dispatch slot
// exactly as the worker that would have pulled it, so helping waiters
// never put more than Workers requests of one queue at the device. A
// successful claim joins the worker group until the caller calls s.wg.Done,
// so that Close also waits out a helper's dispatches; a listed slot means
// the queue is on the ready list or in a live worker's hands, so a worker
// is live and the group is not yet done.
func (q *VolumeQueue) claim() bool {
	spin.Lock(&q.mu)
	defer q.mu.Unlock()
	if q.listed == 0 {
		return false
	}
	q.listed--
	q.s.wg.Add(1)
	return true
}

// dispatchableLocked reports whether a worker could make progress on this
// queue right now. Caller holds q.mu.
func (q *VolumeQueue) dispatchableLocked() bool {
	switch {
	case q.syncActive:
		// A barrier's Sync is executing; the queue is frozen until it
		// completes (its completion re-evaluates).
		return false
	case len(q.pending) == 0:
		return false
	case isBarrier(q.pending[0].op()):
		// The barrier waits for the handed-out requests to drain; their
		// completion re-evaluates.
		return q.inflight == 0
	}
	return true
}

// dispatch takes one request off the queue with the caller's dispatch slot
// and executes it: want, when the caller is a helping waiter whose request
// is queued with no barrier ahead of it, and otherwise the request at the
// head, as a worker takes it (want nil). Several callers may be inside
// dispatch for one queue at once, each with a different request and a slot
// of its own, so at most Workers requests of a queue are at the device; the
// barrier rule is the only intra-volume ordering. It reports whether the
// queue has more dispatchable work, and the caller then still holds the
// slot; otherwise the slot is given back here.
func (q *VolumeQueue) dispatch(want *request) bool {
	spin.Lock(&q.mu)
	r := q.takeLocked(want)
	if r == nil {
		q.slots--
		q.mu.Unlock()
		return false
	}
	barrier := isBarrier(r.op())
	if barrier {
		q.syncActive = true
	}
	q.inflight++
	q.mu.Unlock()

	// Mark the submit→dispatch edge. This caller owns the request now, so
	// the stamp races with nothing.
	m := &q.s.m
	m.Batches.Inc()
	r.dispatchNS = obs.NowNS()
	q.record(r, obs.StageStaged, obs.ClassNone, 0) // G: handed to a worker
	m.QueueLat.ObserveNS(r.dispatchNS - r.submitNS)
	if barrier {
		q.runBarrier(r)
	} else {
		q.finish(r, q.execOne(r))
	}

	spin.Lock(&q.mu)
	q.inflight--
	if barrier {
		q.syncActive = false
	}
	more := q.dispatchableLocked()
	if !more {
		q.slots--
	}
	q.mu.Unlock()
	return more
}

// takeLocked removes the request to dispatch next from pending, or returns
// nil when nothing may dispatch now. want goes first if it is queued ahead
// of every barrier: requests between barriers are unordered, so taking it
// out of arrival order breaks no promise. Otherwise the head goes, if the
// barrier rule lets it. Caller holds q.mu.
func (q *VolumeQueue) takeLocked(want *request) *request {
	i := 0
	if want != nil && !q.syncActive {
		for j, p := range q.pending {
			if isBarrier(p.op()) {
				break
			}
			if p == want {
				i = j
				break
			}
		}
	}
	if i > 0 {
		q.pending = slices.Delete(q.pending, i, i+1)
		return want
	}
	if !q.dispatchableLocked() {
		return nil
	}
	r := q.pending[0]
	q.pending = q.pending[1:]
	return r
}

// help is Future.Wait's dispatch path for r, a request of q. It claims one
// of q's listed dispatch slots and dispatches with it until r completes,
// then settles the slot (DESIGN.md, "One request per dispatch"). A
// goroutine readied by this one while it keeps running waits out the
// runtime's steal back-off, so the slot does not go to a worker while the
// caller can use it:
//   - if the queue's other slots cover its backlog, the slot goes back, and
//     whoever holds them dispatches the rest;
//   - otherwise the helper dispatches on, from the head like a worker, at
//     most the backlog it found when r completed, and only then lists the
//     slot again for a worker.
//
// A waiter that finds no listed slot returns at once and blocks on r.
func (q *VolumeQueue) help(r *request) {
	if !q.claim() {
		return
	}
	defer q.s.wg.Done()
	want, budget := r, 0
	for q.dispatch(want) {
		if want != nil && !r.f.isDone() {
			continue // r is queued behind older work, or in flight elsewhere
		}
		spin.Lock(&q.mu)
		if want != nil {
			want, budget = nil, len(q.pending)
		}
		done, handed := false, false
		switch {
		case q.slots > len(q.pending):
			q.slots--
			done = true
		case budget > 0:
			budget--
		default:
			// The slot goes to a worker. If none is left (the scheduler
			// closed and drained), the helper drains the queue itself.
			handed = q.list()
			done = handed
		}
		q.mu.Unlock()
		if handed {
			q.s.cond.Signal()
		}
		if done {
			return
		}
	}
}

// runBarrier executes a dispatched barrier. A Flush whose device Sync
// fails (after transient retries) leaves durability of everything behind
// the barrier undefined, so the failure is propagated: every request
// parked behind the barrier — frozen in pending while the Sync ran — is
// completed with an ErrBarrier error wrapping the Sync failure instead of
// being silently executed. Requests submitted after the failure surfaces
// run normally; the caller decides whether the device is still worth
// talking to.
func (q *VolumeQueue) runBarrier(r *request) {
	err := q.execOne(r)
	if err != nil && r.op() == storage.OpSync {
		q.s.m.BarrierFails.Inc()
		barrierErr := fmt.Errorf("%w: %w", ErrBarrier, err)
		q.mu.Lock()
		parked := q.pending
		q.pending = nil
		q.mu.Unlock()
		for _, p := range parked {
			q.finish(p, barrierErr)
		}
	}
	q.finish(r, err)
}

// record appends one flight event for a tagged request. Requests with
// fid 0 (recording was off at submission) stay silent on every later
// stage, so a mid-run enable never produces half-traced lifecycles.
func (q *VolumeQueue) record(r *request, st obs.Stage, ec obs.ErrClass, aux uint64) {
	if r.fid() == 0 {
		return
	}
	q.s.flight.Record(r.fid(), st, obs.FlightOp(r.op()), uint32(r.io[0].Blocks()), ec, aux)
}

// finish completes a request's future and folds the outcome into the
// scheduler's accounting: every completion path — executed, purged on
// close, poisoned behind a failed barrier — funnels through here, so the
// counters, gauges, latency histograms, and the flight recorder's
// terminal C event have one source of truth.
func (q *VolumeQueue) finish(r *request, err error) {
	m := &q.s.m
	now := obs.NowNS()
	if err != nil {
		m.Failures.Inc()
	}
	if r.dispatchNS != 0 {
		// A request that never dispatched (purged on close, poisoned behind
		// a failed barrier) records no latency: that work never ran.
		m.ServiceLat.ObserveNS(now - r.dispatchNS)
		m.TotalLat.ObserveNS(now - r.submitNS)
	}
	m.Completed.Inc()
	// C: terminal completion with error class (Aux 0 distinguishes it from
	// the per-attempt C events the retry path records).
	q.record(r, obs.StageComplete, storage.FlightClass(err), 0)
	r.f.complete(err)
}

// execOne executes a single request against the device, retrying
// transient faults under the scheduler's RetryPolicy with capped
// exponential backoff. Re-executing a whole request after a partial
// transfer is safe: block reads and writes are idempotent, and the thin
// layer below unwinds provisioning it could not complete.
//
// The attempt budget is per stall, not per request: a retry whose
// PartialError shows a longer completed prefix than any earlier attempt
// made progress, which refills the budget and resets the backoff — a
// device limping forward block by block converges (bounded by the request
// length), while a fault that pins the transfer in place still gives up
// after MaxAttempts.
func (q *VolumeQueue) execOne(r *request) error {
	// D: attempt 1 goes to the device. Each retry records its own D (Aux =
	// attempt number), and each failed-but-retried attempt an intermediate
	// C carrying the fault's class — so a trace shows every trip the
	// request made, exactly like blktrace's requeue-and-redispatch.
	attempt := uint64(1)
	q.record(r, obs.StageDispatch, obs.ClassNone, attempt)
	err := q.execDirect(r)
	if err == nil || !storage.IsTransient(err) {
		return err
	}
	pol := q.s.opts.Retry
	delay := pol.BaseDelay
	stall, best := 1, -1
	for {
		var pe *storage.PartialError
		if errors.As(err, &pe) && pe.Done > best {
			best = pe.Done
			stall = 1
			delay = pol.BaseDelay
		}
		if stall >= pol.MaxAttempts {
			return err
		}
		// This attempt failed and a retry is committed: close it with an
		// intermediate C (non-zero Aux marks it non-terminal).
		q.record(r, obs.StageComplete, storage.FlightClass(err), attempt)
		time.Sleep(delay)
		if delay *= 2; delay > pol.MaxDelay {
			delay = pol.MaxDelay
		}
		stall++
		attempt++
		q.s.m.Retries.Inc()
		q.record(r, obs.StageDispatch, obs.ClassNone, attempt)
		if err = q.execDirect(r); err == nil {
			q.s.m.Recovered.Inc()
			return nil
		}
		if !storage.IsTransient(err) {
			return err
		}
	}
}

// execDirect issues a single request's device operation, once. The
// request's own descriptor goes down, flight id included, so layers below
// record under the same lifecycle.
func (q *VolumeQueue) execDirect(r *request) error {
	if r.op() == opQuiesce {
		// The barrier itself touches no device state; reaching execution
		// IS the guarantee (everything older has drained).
		return nil
	}
	return storage.Do(q.dev, r.io[:])
}
