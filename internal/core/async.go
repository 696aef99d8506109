package core

import (
	"time"

	"mobiceal/internal/ioq"
	"mobiceal/internal/storage"
)

// syncRetried flushes dev, riding out transient controller faults with the
// same bounded retry the metadata commit path uses. Anything that still
// fails after the retries — or is not transient to begin with — surfaces.
func syncRetried(dev storage.Device) error {
	const attempts = 4
	err := dev.Sync()
	for attempt := 1; err != nil && storage.IsTransient(err) && attempt < attempts; attempt++ {
		time.Sleep(time.Duration(attempt) * 200 * time.Microsecond)
		err = dev.Sync()
	}
	return err
}

// Scheduler returns the system's shared I/O scheduler, starting it on
// first use. All volumes of the system submit through it, so concurrent
// traffic to public, hidden and dummy volumes shares one worker pool —
// and concurrent Flushes fold into single pool group commits.
func (s *System) Scheduler() *ioq.Scheduler {
	s.asyncOnce.Do(func() {
		s.sched = ioq.NewScheduler(ioq.Options{
			Workers: s.cfg.AsyncWorkers,
			Retry:   s.cfg.Retry,
			Flight:  s.flight,
		})
	})
	return s.sched
}

// Close shuts the system down: the async scheduler drains and stops,
// then the pool metadata is committed so everything submitted before
// Close is durable. A system whose async API was never used starts the
// scheduler just to close it, so later Submit calls still get a clean
// ErrClosed future instead of a nil scheduler. The underlying device
// stays open — the caller owns it.
func (s *System) Close() error {
	if err := s.Scheduler().Close(); err != nil {
		return err
	}
	// Mirror Thin.Sync: flush the data device before committing the
	// metadata that references its blocks. (Today data and metadata are
	// slices of one parent device, so the commit's own sync would flush
	// both — but the pool supports distinct devices, and a committed
	// mapping must never point at data still sitting in a volatile
	// cache.)
	if err := syncRetried(s.pool.DataDevice()); err != nil {
		return err
	}
	return s.pool.Commit()
}

// FlushAll is the system-level durability barrier: it quiesces every
// volume's submission queue (every request submitted to any volume before
// the FlushAll drains), then folds ALL their durability into a single data
// sync and ONE pool group commit — one A/B slot flip covers the whole
// system, where per-volume Flushes would pay one device Sync each and rely
// on lucky overlap at the commit door to fold. Requests submitted while
// FlushAll runs are not ordered against it; they may land before the
// commit and simply ride along into it.
func (s *System) FlushAll() error {
	sched := s.Scheduler()
	qs := sched.Queues()
	futs := make([]*ioq.Future, len(qs))
	for i, q := range qs {
		futs[i] = q.Quiesce()
	}
	if err := ioq.WaitAll(futs...); err != nil {
		return err
	}
	if err := syncRetried(s.pool.DataDevice()); err != nil {
		return err
	}
	return s.pool.Commit()
}

// queue returns the volume's submission queue, registering it with the
// system scheduler on first use. Queues are shared per volume id: opening
// the same volume repeatedly (each Open returns a fresh *Volume over an
// equivalent decrypted view) reuses one queue, so a long-lived System's
// scheduler tracks at most NumVolumes queues no matter how many Volume
// handles were ever created — and FlushAll quiesces live volumes, not the
// ghosts of dropped handles.
func (v *Volume) queue() *ioq.VolumeQueue {
	v.qOnce.Do(func() {
		v.q = v.sys.volumeQueue(v.id, v.dev)
	})
	return v.q
}

// volumeQueue returns the shared submission queue of volume id, creating
// it on first use.
func (s *System) volumeQueue(id int, dev storage.Device) *ioq.VolumeQueue {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	if q, ok := s.queues[id]; ok {
		return q
	}
	q := s.Scheduler().Register(dev)
	if s.queues == nil {
		s.queues = make(map[int]*ioq.VolumeQueue)
	}
	s.queues[id] = q
	return q
}

// SubmitRead asynchronously reads blocks [start, start+len(dst)/bs) of
// the decrypted volume view into dst. dst must stay untouched until the
// future completes. Safe for concurrent use with every other volume
// operation.
func (v *Volume) SubmitRead(start uint64, dst []byte) *ioq.Future {
	return v.queue().SubmitRead(start, dst)
}

// SubmitWrite asynchronously writes src as blocks [start,
// start+len(src)/bs) of the decrypted volume view. src must stay stable
// until the future completes. A completed write has reached the device
// stack but is durable only after a completed Flush.
func (v *Volume) SubmitWrite(start uint64, src []byte) *ioq.Future {
	return v.queue().SubmitWrite(start, src)
}

// SubmitDiscard asynchronously TRIMs blocks [start, start+count) of the
// volume, releasing their physical blocks back to the pool.
func (v *Volume) SubmitDiscard(start, count uint64) *ioq.Future {
	return v.queue().SubmitDiscard(start, count)
}

// Flush submits a durability barrier: its future completes once every
// request submitted to this volume before the Flush has completed and the
// pool metadata commit covering them is durable. Concurrent flushes from
// several volumes fold into fewer group commits — N volumes flushing
// together cost far fewer than N metadata slot flips.
func (v *Volume) Flush() *ioq.Future {
	return v.queue().Flush()
}
