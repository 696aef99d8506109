package storage

import (
	"time"

	"mobiceal/internal/obs"
)

// DeviceMetrics is the obs-backed accounting a StatsDevice maintains:
// per-op block/byte counters plus latency histograms. Counters cover
// successful operations only (a failed I/O moved no data), the contract
// the write-amplification experiments depend on. All fields are
// independently atomic; a snapshot racing live traffic may be off by the
// in-flight ops.
type DeviceMetrics struct {
	ReadBlocks  obs.Counter
	WriteBlocks obs.Counter
	BytesRead   obs.Counter
	BytesWrite  obs.Counter
	Syncs       obs.Counter

	ReadLat  obs.Histogram
	WriteLat obs.Histogram
	SyncLat  obs.Histogram
}

// DeviceSnapshot is a point-in-time copy of DeviceMetrics, the form that
// travels in telemetry snapshots.
type DeviceSnapshot struct {
	ReadBlocks  uint64 `json:"read_blocks"`
	WriteBlocks uint64 `json:"write_blocks"`
	BytesRead   uint64 `json:"bytes_read"`
	BytesWrite  uint64 `json:"bytes_write"`
	Syncs       uint64 `json:"syncs"`

	ReadLat  obs.HistSnapshot `json:"read_lat"`
	WriteLat obs.HistSnapshot `json:"write_lat"`
	SyncLat  obs.HistSnapshot `json:"sync_lat"`
}

// Snapshot captures the metrics' current values.
func (m *DeviceMetrics) Snapshot() DeviceSnapshot {
	return DeviceSnapshot{
		ReadBlocks:  m.ReadBlocks.Load(),
		WriteBlocks: m.WriteBlocks.Load(),
		BytesRead:   m.BytesRead.Load(),
		BytesWrite:  m.BytesWrite.Load(),
		Syncs:       m.Syncs.Load(),
		ReadLat:     m.ReadLat.Snapshot(),
		WriteLat:    m.WriteLat.Snapshot(),
		SyncLat:     m.SyncLat.Snapshot(),
	}
}

// StatsDevice wraps a Device and counts traffic through it. The experiment
// harness uses the counts to compute write amplification (physical writes
// per logical write) for each PDE scheme, which is what separates MobiCeal's
// ~20% overhead from HIVE's ~99% in Table I; the telemetry surface reads the
// same counters through Metrics(), so each number has one source of truth.
type StatsDevice struct {
	inner Device
	// bs is inner's block size, read once: every request above asks.
	bs int

	m DeviceMetrics

	// rec, when set, receives one StageDevOp flight event per device
	// operation — the leaf of the request-lifecycle trace. Set it before
	// traffic starts (SetFlightRecorder is not synchronized); a nil
	// recorder costs one comparison per op.
	rec *obs.FlightRecorder
}

// NewStatsDevice wraps inner with I/O accounting.
func NewStatsDevice(inner Device) *StatsDevice {
	return &StatsDevice{inner: inner, bs: inner.BlockSize()}
}

// Metrics exposes the device's obs-backed counters and histograms.
func (d *StatsDevice) Metrics() *DeviceMetrics { return &d.m }

// SetFlightRecorder attaches the flight recorder that receives this
// device's leaf StageDevOp events. Call before the device sees traffic.
func (d *StatsDevice) SetFlightRecorder(r *obs.FlightRecorder) { d.rec = r }

// FlightClass maps an error to its flight-event classification: nil,
// transient, medium, or other. Shared by every layer that records
// completion events so a class means the same thing stack-wide.
func FlightClass(err error) obs.ErrClass {
	switch {
	case err == nil:
		return obs.ClassNone
	case IsTransient(err):
		return obs.ClassTransient
	case IsMedium(err):
		return obs.ClassMedium
	default:
		return obs.ClassOther
	}
}

// devop records the leaf flight event for one device operation. Events
// carry op kind, block count and error class only — never addresses — so
// the export stays deniability-safe.
func (d *StatsDevice) devop(fid uint64, op obs.FlightOp, n uint64, err error) {
	if !d.rec.Enabled() {
		return
	}
	d.rec.Record(fid, obs.StageDevOp, op, uint32(n), FlightClass(err), 0)
}

// BlockSize implements Device.
func (d *StatsDevice) BlockSize() int { return d.bs }

// NumBlocks implements Device.
func (d *StatsDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadBlock implements Device.
func (d *StatsDevice) ReadBlock(idx uint64, dst []byte) error { return DoBlock(d, OpRead, idx, dst) }

// WriteBlock implements Device.
func (d *StatsDevice) WriteBlock(idx uint64, src []byte) error { return DoBlock(d, OpWrite, idx, src) }

// Sync implements Device.
func (d *StatsDevice) Sync() error { return Sync(d) }

// Do implements Doer: the call goes to the inner device whole, and every
// request that was attempted is accounted on its own — the leaf flight
// event under its own id always, and for a success one latency
// observation, the block and byte counters (n blocks count exactly as n
// per-block calls would, so write-amplification accounting does not depend
// on segmentation or batching). The one thing a batch
// cannot give is a per-request service time: every request of a call
// observes the call's. Discards pass through uncounted.
func (d *StatsDevice) Do(reqs []Req) error {
	t0 := time.Now()
	err := Do(d.inner, reqs)
	for i := range reqs {
		r := &reqs[i]
		if r.Op == OpDiscard || (r.Err == nil && !r.OK()) {
			continue // uncounted, or not attempted: an earlier request failed
		}
		n := uint64(r.Blocks())
		d.devop(r.FID, obs.FlightOp(r.Op), n, r.Err)
		if r.Err != nil {
			continue
		}
		switch r.Op {
		case OpRead:
			d.m.ReadLat.Since(t0)
			d.m.ReadBlocks.Add(n)
			d.m.BytesRead.Add(uint64(r.Vec.Bytes()))
		case OpWrite:
			d.m.WriteLat.Since(t0)
			d.m.WriteBlocks.Add(n)
			d.m.BytesWrite.Add(uint64(r.Vec.Bytes()))
		case OpSync:
			d.m.SyncLat.Since(t0)
			d.m.Syncs.Inc()
		}
	}
	return err
}

// Close implements Device.
func (d *StatsDevice) Close() error { return d.inner.Close() }
