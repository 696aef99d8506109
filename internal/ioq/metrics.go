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

	// Batches counts batches drained from volume queues: one per drain,
	// however many runs the batch is handed out as, and one per barrier.
	// CoalescedOps counts merged device operations covering more than one
	// request; CoalescedReqs counts the requests those operations carried.
	Batches       obs.Counter
	CoalescedOps  obs.Counter
	CoalescedReqs obs.Counter

	// QueueDepth is the number of submitted requests not yet handed to a
	// worker, across all queues; InFlight is handed-out-but-uncompleted.
	QueueDepth obs.Gauge
	InFlight   obs.Gauge

	// QueueLat spans submit→dispatch, ServiceLat dispatch→complete,
	// TotalLat submit→complete. Requests that die before dispatch (queue
	// purge on close, barrier poisoning) appear in no histogram — latency
	// of work that never ran is not a latency.
	QueueLat   obs.Histogram
	ServiceLat obs.Histogram
	TotalLat   obs.Histogram

	// Failure accounting. Retries counts re-executions after transient
	// faults; Recovered requests that ultimately succeeded after at least
	// one retry — faults the scheduler absorbed invisibly; Timeouts requests
	// completed with ErrDeadline; Failures requests completed with any
	// non-nil error; BarrierFails Flush barriers whose device Sync failed
	// (after retries), poisoning the requests parked behind them.
	Retries      obs.Counter
	Recovered    obs.Counter
	Timeouts     obs.Counter
	Failures     obs.Counter
	BarrierFails obs.Counter
}

// MetricsSnapshot is a point-in-time copy of Metrics, the form that travels
// in telemetry snapshots.
type MetricsSnapshot struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`

	Batches       uint64 `json:"batches"`
	CoalescedOps  uint64 `json:"coalesced_ops"`
	CoalescedReqs uint64 `json:"coalesced_reqs"`

	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`

	QueueLat   obs.HistSnapshot `json:"queue_lat"`
	ServiceLat obs.HistSnapshot `json:"service_lat"`
	TotalLat   obs.HistSnapshot `json:"total_lat"`

	Retries      uint64 `json:"retries"`
	Recovered    uint64 `json:"recovered"`
	Timeouts     uint64 `json:"timeouts"`
	Failures     uint64 `json:"failures"`
	BarrierFails uint64 `json:"barrier_fails"`
}

// MergeRatio is the fraction of completed requests that rode a coalesced
// device operation — the scheduler's bio-merge economics in one number.
func (s MetricsSnapshot) MergeRatio() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.CoalescedReqs) / float64(s.Completed)
}

// Metrics exposes the scheduler's live counters.
func (s *Scheduler) Metrics() *Metrics { return &s.m }

// MetricsSnapshot captures the scheduler's current metric values.
func (s *Scheduler) MetricsSnapshot() MetricsSnapshot {
	m := &s.m
	return MetricsSnapshot{
		Submitted:     m.Submitted.Load(),
		Completed:     m.Completed.Load(),
		Batches:       m.Batches.Load(),
		CoalescedOps:  m.CoalescedOps.Load(),
		CoalescedReqs: m.CoalescedReqs.Load(),
		QueueDepth:    m.QueueDepth.Load(),
		InFlight:      m.InFlight.Load(),
		QueueLat:      m.QueueLat.Snapshot(),
		ServiceLat:    m.ServiceLat.Snapshot(),
		TotalLat:      m.TotalLat.Snapshot(),
		Retries:       m.Retries.Load(),
		Recovered:     m.Recovered.Load(),
		Timeouts:      m.Timeouts.Load(),
		Failures:      m.Failures.Load(),
		BarrierFails:  m.BarrierFails.Load(),
	}
}

// Flight returns the flight recorder lifecycle events are published to —
// the one handed in via Options.Flight, or nil (a valid always-disabled
// recorder). Enable it with SetEnabled(true) to start recording Q/G/M/D/C
// events for subsequent requests.
func (s *Scheduler) Flight() *obs.FlightRecorder { return s.flight }
