package ioq

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mobiceal/internal/obs"
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
	f  *Future
	// deadline, when non-zero, bounds the request's time in the
	// scheduler: a request still undispatched (or mid-retry) past its
	// deadline completes with ErrDeadline instead of executing.
	deadline time.Time
	// submitNS and dispatchNS are obs.NowNS stamps of the request's
	// life-cycle edges. submitNS is 0 for requests rejected before
	// entering a queue; dispatchNS is 0 for requests never handed to a
	// worker (purged on close or behind a failed barrier, or expired at
	// the drain). Only the goroutine currently owning the request touches
	// them: submit writes submitNS before publishing, the dispatching
	// worker writes dispatchNS at the hand-out.
	submitNS   int64
	dispatchNS int64
}

// newRequest builds a queued request around its device-stack form.
func newRequest(io storage.Req, deadline time.Time) *request {
	return &request{io: [1]storage.Req{io}, f: newFuture(), deadline: deadline}
}

// op, start and fid read the request's device-stack form.
func (r *request) op() storage.Op { return r.io[0].Op }
func (r *request) start() uint64  { return r.io[0].Start }
func (r *request) fid() uint64    { return r.io[0].FID }

// blocks returns the request's length in device blocks.
func (r *request) blocks() uint64 { return uint64(r.io[0].Blocks()) }

// VolumeQueue is the per-volume staging queue: submissions append under
// the queue lock, workers drain batches and hand out their coalesced runs
// one per dispatch. Sync requests are dispatch barriers — a sync leaves the
// queue only when it is the oldest request and nothing of this volume is
// staged or in flight, and requests behind it wait until it completes.
type VolumeQueue struct {
	s   *Scheduler
	dev storage.Device

	mu      sync.Mutex
	pending []*request
	// staged is the rest of the batch drained last: expired requests gone,
	// elevator-sorted, not yet cut into runs. Each dispatch hands out its
	// leading run; pending is drained again only once it is empty.
	staged []*request
	// inflight counts requests handed out to a worker and not yet
	// completed.
	inflight int
	// syncActive marks a barrier's Sync as in flight: nothing else of
	// this queue may dispatch until it completes — requests submitted
	// after a Flush must not reach the device while the barrier's Sync
	// is still running.
	syncActive bool
	// slots counts this queue's dispatches outstanding — entries on the
	// scheduler's ready list plus dispatch calls running. Submissions take
	// slots (at most Workers); a worker gives its slot back when a dispatch
	// ends with nothing dispatchable. Whenever work is dispatchable at least
	// one slot is out, so no request is ever stranded.
	slots int
}

// SubmitRead asynchronously reads blocks [start, start+len(dst)/bs) into
// dst. dst must stay untouched by the caller until the future completes.
// A dst that is not a whole number of blocks fails immediately: the
// scheduler merges requests by block arithmetic, so a misaligned buffer
// is rejected at the door rather than poisoning a merged run.
func (q *VolumeQueue) SubmitRead(start uint64, dst []byte) *Future {
	return q.SubmitReadOpts(start, dst, ReqOptions{})
}

// SubmitWrite asynchronously writes src as blocks [start,
// start+len(src)/bs). src must stay stable until the future completes.
// Misaligned buffers are rejected at submission, like SubmitRead.
func (q *VolumeQueue) SubmitWrite(start uint64, src []byte) *Future {
	return q.SubmitWriteOpts(start, src, ReqOptions{})
}

// SubmitDiscard asynchronously TRIMs blocks [start, start+count).
// Devices without discard support complete it as a no-op.
func (q *VolumeQueue) SubmitDiscard(start, count uint64) *Future {
	return q.SubmitDiscardOpts(start, count, ReqOptions{})
}

// ReqOptions carries per-request submission options.
type ReqOptions struct {
	// Deadline, when non-zero, bounds the request's total time in the
	// scheduler. A request whose deadline passes before it executes —
	// parked behind a barrier, queued behind a burst, or mid-retry —
	// completes with ErrDeadline without wedging the queue or any Flush
	// barrier behind it. A request already at the device is never
	// aborted mid-transfer; the deadline is checked at dispatch and
	// between retries.
	Deadline time.Time
}

// SubmitReadOpts is SubmitRead with per-request options.
func (q *VolumeQueue) SubmitReadOpts(start uint64, dst []byte, o ReqOptions) *Future {
	return q.submitIO(storage.OpRead, start, dst, o)
}

// SubmitWriteOpts is SubmitWrite with per-request options.
func (q *VolumeQueue) SubmitWriteOpts(start uint64, src []byte, o ReqOptions) *Future {
	return q.submitIO(storage.OpWrite, start, src, o)
}

// submitIO queues a transfer of buf, which becomes the request's one
// segment. A buffer that is not block-aligned completes failed at once.
func (q *VolumeQueue) submitIO(op storage.Op, start uint64, buf []byte, o ReqOptions) *Future {
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
	return q.submit(newRequest(storage.Req{Op: op, Start: start, Vec: v}, o.Deadline))
}

// SubmitDiscardOpts is SubmitDiscard with per-request options.
func (q *VolumeQueue) SubmitDiscardOpts(start, count uint64, o ReqOptions) *Future {
	return q.submit(newRequest(storage.Req{Op: storage.OpDiscard, Start: start, Count: count}, o.Deadline))
}

// Flush submits a sync barrier: its future completes after every request
// submitted before it has completed and the device stack's Sync has run
// (on a MobiCeal volume: data flushed and pool metadata group-committed).
func (q *VolumeQueue) Flush() *Future {
	return q.submit(newRequest(storage.Req{Op: storage.OpSync}, time.Time{}))
}

// Quiesce submits a drain barrier: its future completes once every request
// submitted before it has completed, WITHOUT running the device stack's
// Sync. Callers coordinating several queues (System.FlushAll) quiesce them
// all, then fold the whole system's durability into a single sync instead
// of paying one per queue.
func (q *VolumeQueue) Quiesce() *Future {
	return q.submit(newRequest(storage.Req{Op: opQuiesce}, time.Time{}))
}

// Device returns the device stack this queue serves.
func (q *VolumeQueue) Device() storage.Device { return q.dev }

func (q *VolumeQueue) submit(r *request) *Future {
	if q.s.isClosed() {
		// Counted as a submission so the closed-scheduler rejection shows
		// up in Submitted/Completed/Failures like any other outcome; the
		// request never entered a queue (submitNS stays 0), so no gauge or
		// histogram moves.
		q.s.m.Submitted.Inc()
		q.finish(r, ErrClosed)
		return r.f
	}
	r.submitNS = obs.NowNS()
	if rec := q.s.flight; rec.Enabled() {
		// Q: the request enters the queue. The id assigned here is the one
		// every later stage — scheduler, thinp, leaf device — records under.
		r.io[0].FID = rec.NextID()
		q.record(r, obs.StageQueued, obs.ClassNone, 0)
	}
	q.s.m.Submitted.Inc()
	q.s.m.QueueDepth.Inc()
	q.mu.Lock()
	q.pending = append(q.pending, r)
	// Only submissions wake workers, one wake per submission: a worker
	// that finds more work at the end of a dispatch re-queues the queue
	// itself (Scheduler.worker) and wakes nobody.
	wake := q.slots < q.s.opts.Workers && q.dispatchableLocked()
	if wake {
		q.slots++
	}
	q.mu.Unlock()
	if wake && !q.s.enqueue(q) {
		// The scheduler closed and its workers exited between the closed
		// check and the wake: nothing will ever drain this queue again, so
		// fail everything still pending (nothing can be staged — a staged
		// batch holds a slot, and a slot holds a live worker).
		q.mu.Lock()
		q.slots--
		rest := q.pending
		q.pending = nil
		q.mu.Unlock()
		for _, p := range rest {
			q.finish(p, ErrClosed)
		}
	}
	return r.f
}

// dispatchableLocked reports whether a worker could make progress on this
// queue right now. Caller holds q.mu.
func (q *VolumeQueue) dispatchableLocked() bool {
	switch {
	case q.syncActive:
		// A barrier's Sync is executing; the queue is frozen until it
		// completes (its completion re-evaluates).
		return false
	case len(q.staged) > 0:
		return true
	case len(q.pending) == 0:
		return false
	case isBarrier(q.pending[0].op()):
		// The barrier waits for the handed-out requests to drain; their
		// completion re-evaluates.
		return q.inflight == 0
	}
	return true
}

// dispatch hands out one unit of work — the barrier at the head of the
// queue, or the next coalesced run of the staged batch, draining a new
// batch first when none is staged — and executes it. Several workers may
// be inside dispatch for one queue at once, each with a different run: the
// worker pool is the queue's only in-flight parallelism, and the barrier
// rule its only intra-volume ordering. It reports whether the queue has
// more dispatchable work; the calling worker then re-queues it, keeping
// the dispatch slot, and otherwise the slot is given back here.
func (q *VolumeQueue) dispatch() bool {
	var run, expired []*request
	barrier := false
	q.mu.Lock()
	if q.dispatchableLocked() {
		if len(q.staged) == 0 {
			if barrier = isBarrier(q.pending[0].op()); barrier {
				run, q.pending = q.pending[:1:1], q.pending[1:]
				q.syncActive = true
				q.s.m.Batches.Inc() // a barrier is a drain of one
			} else {
				expired = q.stageLocked()
			}
		}
		if len(q.staged) > 0 {
			run = q.nextRunLocked()
		}
	}
	// Expired requests count as handed out until their futures complete,
	// so a barrier behind them cannot overtake even those.
	held := len(run) + len(expired)
	q.inflight += held
	q.mu.Unlock()

	for _, r := range expired {
		q.finish(r, fmt.Errorf("%w: block %d", ErrDeadline, r.start()))
	}
	if n := len(run); n > 0 {
		// Mark the submit→dispatch edge. This worker owns the run now, so
		// the stamps race with nothing.
		now := obs.NowNS()
		for _, r := range run {
			r.dispatchNS = now
			q.record(r, obs.StageStaged, obs.ClassNone, 0) // G: handed to a worker
			q.s.m.QueueLat.ObserveNS(now - r.submitNS)
		}
		q.s.m.QueueDepth.Add(-int64(n))
		q.s.m.InFlight.Add(int64(n))
		if barrier {
			q.runBarrier(run[0])
		} else {
			q.exec(run)
		}
	}

	q.mu.Lock()
	q.inflight -= held
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

// stageLocked drains one batch — up to maxBatch requests, stopping at a
// barrier — from pending into staged. Requests whose deadline already
// passed are taken out first and returned for the caller to complete, so
// the survivors on either side of one are never merged across the gap;
// the rest is elevator-sorted once. Caller holds q.mu.
func (q *VolumeQueue) stageLocked() (expired []*request) {
	n := 0
	for n < len(q.pending) && n < maxBatch && !isBarrier(q.pending[n].op()) {
		n++
	}
	batch := q.pending[:n:n]
	q.pending = q.pending[n:]
	q.s.m.Batches.Inc()
	var now time.Time
	live := batch[:0]
	for _, r := range batch {
		if !r.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if now.After(r.deadline) {
				expired = append(expired, r)
				continue
			}
		}
		live = append(live, r)
	}
	if len(live) > 1 {
		sort.SliceStable(live, func(i, j int) bool {
			if live[i].op() != live[j].op() {
				return live[i].op() < live[j].op()
			}
			return live[i].start() < live[j].start()
		})
	}
	q.staged = live
	return expired
}

// nextRunLocked cuts the leading run of adjacent same-kind requests, at
// most mergeBlocks long, off the staged batch. Caller holds q.mu.
func (q *VolumeQueue) nextRunLocked() []*request {
	b := q.staged
	total := b[0].blocks()
	end := b[0].start() + total
	j := 1
	for j < len(b) &&
		b[j].op() == b[0].op() &&
		b[j].start() == end &&
		total+b[j].blocks() <= mergeBlocks {
		end += b[j].blocks()
		total += b[j].blocks()
		j++
	}
	q.staged = b[j:]
	return b[:j:j]
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
	q.s.flight.Record(r.fid(), st, obs.FlightOp(r.op()), uint32(r.blocks()), ec, aux)
}

// finish completes a request's future and folds the outcome into the
// scheduler's accounting: every completion path — executed, expired,
// purged on close, poisoned behind a failed barrier — funnels through
// here, so the counters, gauges, latency histograms, and the flight
// recorder's terminal C event have one source of truth.
func (q *VolumeQueue) finish(r *request, err error) {
	m := &q.s.m
	now := obs.NowNS()
	if err != nil {
		m.Failures.Inc()
		if errors.Is(err, ErrDeadline) {
			m.Timeouts.Inc()
		}
	}
	switch {
	case r.dispatchNS != 0:
		m.InFlight.Dec()
		m.ServiceLat.ObserveNS(now - r.dispatchNS)
		m.TotalLat.ObserveNS(now - r.submitNS)
	case r.submitNS != 0:
		// Never dispatched: it leaves the queue without touching a device,
		// so only the depth gauge unwinds — no latency is recorded for
		// work that never ran.
		m.QueueDepth.Dec()
	}
	m.Completed.Inc()
	// C: terminal completion with error class (Aux 0 distinguishes it from
	// the per-attempt C events the retry path records).
	q.record(r, obs.StageComplete, storage.FlightClass(err), 0)
	r.f.complete(err)
}

// exec executes one run of adjacent same-kind requests as a single device
// operation. Merged reads and writes dispatch as one scatter-gather vec
// built from the requests' own buffers — the device stack reads into /
// writes from the callers' memory directly, with zero payload copies in
// the scheduler. If a coalesced operation fails, the run is re-executed
// request by request so each future carries its own precise error.
func (q *VolumeQueue) exec(run []*request) {
	if len(run) == 1 {
		r := run[0]
		q.finish(r, q.execOne(r))
		return
	}
	head := run[0]
	// M: each child records which head it merged into; D: every request of
	// the run dispatches now, as one device operation carried by the head's
	// id (blktrace's semantics — the merged bio goes down as the head).
	for _, r := range run[1:] {
		q.record(r, obs.StageMerged, obs.ClassNone, head.fid())
	}
	for _, r := range run {
		q.record(r, obs.StageDispatch, obs.ClassNone, 1)
	}
	// The head's own descriptor carries the merged operation down — its
	// start and id are the run's — grown for the length of the call to the
	// whole run: one segment per request, each the caller's own buffer, or
	// the summed discard count.
	own := head.io[0]
	if own.Op == storage.OpDiscard {
		for _, r := range run[1:] {
			head.io[0].Count += r.io[0].Count
		}
	} else {
		head.io[0].Vec = q.runVec(run)
	}
	err := storage.Do(q.dev, head.io[:])
	head.io[0] = own
	if err == nil {
		q.s.m.CoalescedOps.Inc()
		q.s.m.CoalescedReqs.Add(uint64(len(run)))
		for _, r := range run {
			q.finish(r, nil)
		}
		return
	}
	// The merged operation failed; fall back to per-request execution so
	// each caller learns exactly what happened to its own range (and so
	// transient faults are retried at per-request granularity).
	for _, r := range run {
		q.finish(r, q.execOne(r))
	}
}

// runVec builds the scatter-gather vec of a merged run: one segment per
// request, each the caller's own buffer. The only allocation is the
// segment-header slice — no payload bytes move. Zero-length requests
// (valid no-ops) contribute no segment.
func (q *VolumeQueue) runVec(run []*request) storage.BlockVec {
	segs := make([][]byte, 0, len(run))
	for _, r := range run {
		if v := r.io[0].Vec; v.Segments() > 0 {
			segs = append(segs, v.Seg(0))
		}
	}
	return storage.Vec(q.dev.BlockSize(), segs...)
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
// after MaxAttempts. A request with a deadline stops retrying once the
// next backoff would overrun it and reports the device's error.
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
		if !r.deadline.IsZero() && time.Now().Add(delay).After(r.deadline) {
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
