package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"mobiceal/internal/obs"
)

// IOStats aggregates traffic observed by a StatsDevice. It is a
// compatibility view over DeviceMetrics — the obs counters are the single
// source of truth.
type IOStats struct {
	Reads      uint64 // blocks read
	Writes     uint64 // blocks written
	BytesRead  uint64
	BytesWrite uint64
	Syncs      uint64
}

// DeviceMetrics is the obs-backed accounting a StatsDevice maintains:
// per-op block/byte counters plus latency histograms. Counters cover
// successful operations only (a failed I/O moved no data), matching the
// historical IOStats contract the write-amplification experiments depend
// on. All fields are independently atomic; a snapshot racing live traffic
// may be off by the in-flight ops.
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

// reset zeroes every counter and histogram.
func (m *DeviceMetrics) reset() {
	m.ReadBlocks.Reset()
	m.WriteBlocks.Reset()
	m.BytesRead.Reset()
	m.BytesWrite.Reset()
	m.Syncs.Reset()
	m.ReadLat.Reset()
	m.WriteLat.Reset()
	m.SyncLat.Reset()
}

// StatsDevice wraps a Device and counts traffic through it. The experiment
// harness uses the counts to compute write amplification (physical writes
// per logical write) for each PDE scheme, which is what separates MobiCeal's
// ~20% overhead from HIVE's ~99% in Table I; the telemetry surface reads the
// same counters through Metrics(), so each number has one source of truth.
type StatsDevice struct {
	inner Device

	m DeviceMetrics

	// rec, when set, receives one StageDevOp flight event per device
	// operation — the leaf of the request-lifecycle trace. Set it before
	// traffic starts (SetFlightRecorder is not synchronized); a nil
	// recorder costs one comparison per op.
	rec *obs.FlightRecorder

	// The write trace is the one remaining mutex-guarded piece: it is an
	// opt-in, unbounded recording the adversary's layout detector consumes
	// in ablation experiments, never part of live telemetry.
	traceOn    atomic.Bool
	mu         sync.Mutex
	writeTrace []uint64
}

var (
	_ RangeDevice       = (*StatsDevice)(nil)
	_ VecDevice         = (*StatsDevice)(nil)
	_ FlightBlockDevice = (*StatsDevice)(nil)
	_ FlightRangeDevice = (*StatsDevice)(nil)
	_ FlightVecDevice   = (*StatsDevice)(nil)
	_ FlightSyncer      = (*StatsDevice)(nil)
	_ Batcher           = (*StatsDevice)(nil)
)

// NewStatsDevice wraps inner with I/O accounting.
func NewStatsDevice(inner Device) *StatsDevice {
	return &StatsDevice{inner: inner}
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

// EnableWriteTrace starts recording the index of every written block in
// order. The adversary's layout detector consumes this trace in ablation
// experiments; it is off by default because traces grow with traffic.
func (d *StatsDevice) EnableWriteTrace() { d.traceOn.Store(true) }

// WriteTrace returns a copy of the recorded write ordering.
func (d *StatsDevice) WriteTrace() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, len(d.writeTrace))
	copy(out, d.writeTrace)
	return out
}

// Stats returns a copy of the current counters as the historical IOStats
// view.
func (d *StatsDevice) Stats() IOStats {
	return IOStats{
		Reads:      d.m.ReadBlocks.Load(),
		Writes:     d.m.WriteBlocks.Load(),
		BytesRead:  d.m.BytesRead.Load(),
		BytesWrite: d.m.BytesWrite.Load(),
		Syncs:      d.m.Syncs.Load(),
	}
}

// ResetStats zeroes the counters, histograms, and the write trace.
func (d *StatsDevice) ResetStats() {
	d.m.reset()
	d.mu.Lock()
	d.writeTrace = nil
	d.mu.Unlock()
}

// traceWrite appends n ascending block indexes starting at start to the
// write trace, as the per-block path would record them.
func (d *StatsDevice) traceWrite(start, n uint64) {
	d.mu.Lock()
	for i := uint64(0); i < n; i++ {
		d.writeTrace = append(d.writeTrace, start+i)
	}
	d.mu.Unlock()
}

// BlockSize implements Device.
func (d *StatsDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements Device.
func (d *StatsDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadBlock implements Device.
func (d *StatsDevice) ReadBlock(idx uint64, dst []byte) error {
	return d.readBlockF(0, idx, dst)
}

// ReadBlockFlight implements FlightBlockDevice.
func (d *StatsDevice) ReadBlockFlight(fid, idx uint64, dst []byte) error {
	return d.readBlockF(fid, idx, dst)
}

func (d *StatsDevice) readBlockF(fid, idx uint64, dst []byte) error {
	t0 := time.Now()
	err := d.inner.ReadBlock(idx, dst)
	d.devop(fid, obs.FOpRead, 1, err)
	if err != nil {
		return err
	}
	d.m.ReadLat.Since(t0)
	d.m.ReadBlocks.Inc()
	d.m.BytesRead.Add(uint64(len(dst)))
	return nil
}

// WriteBlock implements Device.
func (d *StatsDevice) WriteBlock(idx uint64, src []byte) error {
	return d.writeBlockF(0, idx, src)
}

// WriteBlockFlight implements FlightBlockDevice.
func (d *StatsDevice) WriteBlockFlight(fid, idx uint64, src []byte) error {
	return d.writeBlockF(fid, idx, src)
}

func (d *StatsDevice) writeBlockF(fid, idx uint64, src []byte) error {
	t0 := time.Now()
	err := d.inner.WriteBlock(idx, src)
	d.devop(fid, obs.FOpWrite, 1, err)
	if err != nil {
		return err
	}
	d.m.WriteLat.Since(t0)
	d.m.WriteBlocks.Inc()
	d.m.BytesWrite.Add(uint64(len(src)))
	if d.traceOn.Load() {
		d.traceWrite(idx, 1)
	}
	return nil
}

// ReadBlocks implements RangeDevice; the n blocks count exactly as n
// per-block reads would, so write-amplification accounting is unchanged by
// vectoring. Latency is one observation per range op.
func (d *StatsDevice) ReadBlocks(start uint64, dst []byte) error {
	return d.readBlocksF(0, start, dst)
}

// ReadBlocksFlight implements FlightRangeDevice.
func (d *StatsDevice) ReadBlocksFlight(fid, start uint64, dst []byte) error {
	return d.readBlocksF(fid, start, dst)
}

func (d *StatsDevice) readBlocksF(fid, start uint64, dst []byte) error {
	t0 := time.Now()
	err := ReadBlocks(d.inner, start, dst)
	d.devop(fid, obs.FOpRead, uint64(len(dst)/d.inner.BlockSize()), err)
	if err != nil {
		return err
	}
	d.m.ReadLat.Since(t0)
	d.m.ReadBlocks.Add(uint64(len(dst) / d.inner.BlockSize()))
	d.m.BytesRead.Add(uint64(len(dst)))
	return nil
}

// WriteBlocks implements RangeDevice. The write trace records every block
// of the range in ascending order, as the per-block path would.
func (d *StatsDevice) WriteBlocks(start uint64, src []byte) error {
	return d.writeBlocksF(0, start, src)
}

// WriteBlocksFlight implements FlightRangeDevice.
func (d *StatsDevice) WriteBlocksFlight(fid, start uint64, src []byte) error {
	return d.writeBlocksF(fid, start, src)
}

func (d *StatsDevice) writeBlocksF(fid, start uint64, src []byte) error {
	t0 := time.Now()
	err := WriteBlocks(d.inner, start, src)
	d.devop(fid, obs.FOpWrite, uint64(len(src)/d.inner.BlockSize()), err)
	if err != nil {
		return err
	}
	d.m.WriteLat.Since(t0)
	n := uint64(len(src) / d.inner.BlockSize())
	d.m.WriteBlocks.Add(n)
	d.m.BytesWrite.Add(uint64(len(src)))
	if d.traceOn.Load() {
		d.traceWrite(start, n)
	}
	return nil
}

// ReadBlocksVec implements VecDevice; the vec's blocks count exactly as the
// per-block path would, so write-amplification accounting is unchanged by
// scatter-gather.
func (d *StatsDevice) ReadBlocksVec(start uint64, v BlockVec) error {
	return d.readBlocksVecF(0, start, v)
}

// ReadBlocksVecFlight implements FlightVecDevice.
func (d *StatsDevice) ReadBlocksVecFlight(fid, start uint64, v BlockVec) error {
	return d.readBlocksVecF(fid, start, v)
}

func (d *StatsDevice) readBlocksVecF(fid, start uint64, v BlockVec) error {
	t0 := time.Now()
	err := ReadBlocksVec(d.inner, start, v)
	d.noteVec(false, fid, start, v, t0, err)
	return err
}

// noteVec accounts one completed vec transfer: the leaf flight event
// always, and — for a success — one latency observation, the block and
// byte counters and the write trace. The vec methods and DoBatch share
// it, so a request counts the same whichever way it went down.
func (d *StatsDevice) noteVec(write bool, fid, start uint64, v BlockVec, t0 time.Time, err error) {
	n := uint64(v.Len())
	if !write {
		d.devop(fid, obs.FOpRead, n, err)
		if err != nil {
			return
		}
		d.m.ReadLat.Since(t0)
		d.m.ReadBlocks.Add(n)
		d.m.BytesRead.Add(uint64(v.Bytes()))
		return
	}
	d.devop(fid, obs.FOpWrite, n, err)
	if err != nil {
		return
	}
	d.m.WriteLat.Since(t0)
	d.m.WriteBlocks.Add(n)
	d.m.BytesWrite.Add(uint64(v.Bytes()))
	if d.traceOn.Load() {
		d.traceWrite(start, n)
	}
}

// WriteBlocksVec implements VecDevice. The write trace records every block
// of the vec in ascending order, as the per-block path would.
func (d *StatsDevice) WriteBlocksVec(start uint64, v BlockVec) error {
	return d.writeBlocksVecF(0, start, v)
}

// WriteBlocksVecFlight implements FlightVecDevice.
func (d *StatsDevice) WriteBlocksVecFlight(fid, start uint64, v BlockVec) error {
	return d.writeBlocksVecF(fid, start, v)
}

func (d *StatsDevice) writeBlocksVecF(fid, start uint64, v BlockVec) error {
	t0 := time.Now()
	err := WriteBlocksVec(d.inner, start, v)
	d.noteVec(true, fid, start, v, t0, err)
	return err
}

// DoBatch implements Batcher: the batch goes to the inner device whole,
// and each request that was attempted is accounted exactly as its own vec
// call would have been — same counters, one flight event under its own id
// — so byte accounting and trace signatures do not depend on whether a
// request travelled alone or in a batch. The one thing a batch cannot
// give is a per-request service time: every request of a batch observes
// the batch's.
func (d *StatsDevice) DoBatch(write bool, reqs []IOReq) (bool, error) {
	b, ok := d.inner.(Batcher)
	if !ok {
		return false, nil
	}
	t0 := time.Now()
	handled, err := b.DoBatch(write, reqs)
	if !handled {
		return false, nil
	}
	for i := range reqs {
		r := &reqs[i]
		if r.Err == nil && r.Done < r.Vec.Len() {
			continue // not attempted: an earlier request failed
		}
		d.noteVec(write, r.FID, r.Start, r.Vec, t0, r.Err)
	}
	return true, err
}

// Sync implements Device.
func (d *StatsDevice) Sync() error { return d.syncF(0) }

// SyncFlight implements FlightSyncer.
func (d *StatsDevice) SyncFlight(fid uint64) error { return d.syncF(fid) }

func (d *StatsDevice) syncF(fid uint64) error {
	t0 := time.Now()
	err := d.inner.Sync()
	d.devop(fid, obs.FOpSync, 0, err)
	if err != nil {
		return err
	}
	d.m.SyncLat.Since(t0)
	d.m.Syncs.Inc()
	return nil
}

// Close implements Device.
func (d *StatsDevice) Close() error { return d.inner.Close() }
