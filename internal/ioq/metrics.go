package ioq

import "mobiceal/internal/obs"

// Metrics is the scheduler's obs-backed accounting — the single source of
// truth behind the telemetry snapshot.
// Requests are counted at the queue level the same way for every volume:
// there are no per-volume counters, so the numbers cannot attribute traffic
// to the public or the hidden half of a system (see DESIGN.md
// "Observability").
type Metrics struct {
	// Submitted counts requests accepted into a volume queue (barriers
	// included). Completed counts futures the scheduler resolved, whatever
	// the outcome; Submitted-Completed equals the work still inside.
	Submitted obs.Counter
	Completed obs.Counter

	// Batches counts dispatches: one per request handed to a worker,
	// barriers included.
	Batches obs.Counter

	// QueueLat spans submit→dispatch, ServiceLat dispatch→complete,
	// TotalLat submit→complete. Requests that die before dispatch (queue
	// purge on close, barrier poisoning) appear in no histogram — latency
	// of work that never ran is not a latency.
	QueueLat   obs.Histogram
	ServiceLat obs.Histogram
	TotalLat   obs.Histogram

	// Failure accounting. Retries counts re-executions after transient
	// faults; Recovered requests that ultimately succeeded after at least
	// one retry — faults the scheduler absorbed invisibly; Failures requests
	// completed with any non-nil error; BarrierFails Flush barriers whose
	// device Sync failed (after retries), poisoning the requests parked
	// behind them.
	Retries      obs.Counter
	Recovered    obs.Counter
	Failures     obs.Counter
	BarrierFails obs.Counter
}

// MetricsSnapshot is a point-in-time copy of Metrics, the form that travels
// in telemetry snapshots.
type MetricsSnapshot struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`

	Batches uint64 `json:"batches"`
	// CoalescedReqs is always zero: the scheduler merges nothing. It is
	// declared only because the benchmark harness still reads it.
	CoalescedReqs uint64 `json:"coalesced_reqs"`

	// QueueDepth is the number of submitted requests not yet handed to a
	// worker, across all queues; InFlight is handed-out-but-uncompleted.
	// Both are derived when the snapshot is taken, so that no request
	// writes a shared gauge (MetricsSnapshot).
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`

	QueueLat   obs.HistSnapshot `json:"queue_lat"`
	ServiceLat obs.HistSnapshot `json:"service_lat"`
	TotalLat   obs.HistSnapshot `json:"total_lat"`

	Retries      uint64 `json:"retries"`
	Recovered    uint64 `json:"recovered"`
	Failures     uint64 `json:"failures"`
	BarrierFails uint64 `json:"barrier_fails"`
}

// Metrics exposes the scheduler's live counters.
func (s *Scheduler) Metrics() *Metrics { return &s.m }

// MetricsSnapshot captures the scheduler's current metric values.
//
// The two gauges are derived from counters every request moves anyway. A
// dispatched request counts one batch before its service time is observed,
// so InFlight = Batches − ServiceLat.Count. A request is inside the
// scheduler from its submission to its completion, queued or in flight, so
// QueueDepth = Submitted − Completed − InFlight (a request refused on a
// closed scheduler counts as both submitted and completed). Each counter is
// read after the ones that move later in a request's life, so a snapshot
// racing requests does not read a negative level.
func (s *Scheduler) MetricsSnapshot() MetricsSnapshot {
	m := &s.m
	completed := m.Completed.Load()
	service := m.ServiceLat.Snapshot()
	snap := MetricsSnapshot{
		Batches:      m.Batches.Load(),
		Submitted:    m.Submitted.Load(),
		Completed:    completed,
		QueueLat:     m.QueueLat.Snapshot(),
		ServiceLat:   service,
		TotalLat:     m.TotalLat.Snapshot(),
		Retries:      m.Retries.Load(),
		Recovered:    m.Recovered.Load(),
		Failures:     m.Failures.Load(),
		BarrierFails: m.BarrierFails.Load(),
	}
	snap.InFlight = int64(snap.Batches - service.Count)
	snap.QueueDepth = int64(snap.Submitted-completed) - snap.InFlight
	return snap
}

// Flight returns the flight recorder lifecycle events are published to —
// the one handed in via Options.Flight, or nil (a valid always-disabled
// recorder). Enable it with SetEnabled(true) to start recording Q/G/D/C
// events for subsequent requests.
func (s *Scheduler) Flight() *obs.FlightRecorder { return s.flight }
