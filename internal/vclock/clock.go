// Package vclock provides a virtual clock and per-platform cost models.
//
// The paper's evaluation numbers (Fig. 4, Tables I and II) were measured on
// three different testbeds: an LG Nexus 4 (MobiCeal), an SSD desktop (HIVE)
// and a RAM-backed simulated flash device (DEFY). Absolute numbers are
// therefore testbed artifacts; what must reproduce is the *shape* — who
// wins and by roughly what factor. This package models each testbed as a
// Profile of elementary costs (streaming bandwidth, random-access penalty,
// crypto bandwidth, control-plane constants) and accumulates virtual time on
// a Clock as the real Go implementations perform their actual I/O and
// crypto work. Overheads then emerge from the implementations' genuine
// amplification factors rather than from hard-coded results.
package vclock

import (
	"sync"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// valid clock at time zero. Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current virtual time since the clock's origin.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative advances are ignored so
// cost formulas that round to zero cannot move time backwards.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Reset rewinds the clock to zero. Experiments reset between runs.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.now = 0
	c.mu.Unlock()
}

// Stopwatch measures a span of virtual time on a clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// NewStopwatch starts a stopwatch at the clock's current time.
func NewStopwatch(c *Clock) *Stopwatch {
	return &Stopwatch{clock: c, start: c.Now()}
}

// Elapsed returns virtual time since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }

// bytesDuration converts a byte count at a bytes/second rate to a duration.
func bytesDuration(n uint64, bps float64) time.Duration {
	if bps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// Meter charges elementary operations against a Clock according to a
// Profile. Subsystems (the cost devices wrapped around each priced layer,
// the baseline schemes, the Android control plane) share one Meter so a full
// experiment accumulates on a single timeline.
type Meter struct {
	clock   *Clock
	profile Profile

	mu        sync.Mutex
	lastRead  uint64
	lastWrite uint64
	haveRead  bool
	haveWrite bool
}

// NewMeter returns a Meter charging against clock with profile costs.
func NewMeter(clock *Clock, profile Profile) *Meter {
	return &Meter{clock: clock, profile: profile}
}

// Profile returns the cost profile.
func (m *Meter) Profile() Profile { return m.profile }

// ChargeRead charges a block read of n bytes at device block index idx.
// Non-contiguous accesses pay the profile's random-read penalty, modeling
// FTL/seek behaviour.
func (m *Meter) ChargeRead(idx uint64, n int) {
	m.mu.Lock()
	seq := m.haveRead && idx == m.lastRead+1
	m.lastRead = idx
	m.haveRead = true
	m.mu.Unlock()

	d := bytesDuration(uint64(n), m.profile.SeqReadBps)
	if !seq {
		d += m.profile.RandReadPenalty
	}
	m.clock.Advance(d)
}

// ChargeWrite charges a block write of n bytes at device block index idx.
func (m *Meter) ChargeWrite(idx uint64, n int) {
	m.mu.Lock()
	seq := m.haveWrite && idx == m.lastWrite+1
	m.lastWrite = idx
	m.haveWrite = true
	m.mu.Unlock()

	d := bytesDuration(uint64(n), m.profile.SeqWriteBps)
	if !seq {
		d += m.profile.RandWritePenalty
	}
	m.clock.Advance(d)
}

// ChargeCrypto charges encryption or decryption of n bytes. A nil meter
// charges nothing, so an unmetered scheme calls it unguarded.
func (m *Meter) ChargeCrypto(n int) {
	if m == nil {
		return
	}
	m.clock.Advance(bytesDuration(uint64(n), m.profile.CryptBps))
}

// ChargeTraversalRead charges the per-request cost of one device-mapper
// target on the synchronous read path (bio remapping, mapping lookups).
// The paper attributes the ~18% read cost of stock thin provisioning to
// exactly this added layer (Sec. VI-B: "thin provisioning adds a layer
// between file system and disk, so the additional operations reduce the
// read performance").
func (m *Meter) ChargeTraversalRead() {
	m.clock.Advance(m.profile.TargetTraversalRead)
}

// ChargeTraversalWrite charges the per-request target cost on the write
// path. Writes are write-back buffered on Android, so the traversal cost
// largely overlaps device time and the effective charge is much smaller
// than on reads — which is why Fig. 4 shows thin provisioning costing
// reads ~18% but writes almost nothing.
func (m *Meter) ChargeTraversalWrite() {
	m.clock.Advance(m.profile.TargetTraversalWrite)
}

// ChargeFixed charges an arbitrary control-plane duration (framework
// restart, mkfs, volume creation, ...).
func (m *Meter) ChargeFixed(d time.Duration) { m.clock.Advance(d) }

// ChargeRandFill charges generation + writing of n bytes of fresh
// randomness, the dominant cost of single-snapshot PDE initialization
// (MobiPluto fills the whole disk with randomness at setup).
func (m *Meter) ChargeRandFill(n uint64) {
	m.clock.Advance(bytesDuration(n, m.profile.RandFillBps))
}

// ChargeSeqRead charges a bulk streaming read of n bytes with no
// per-request penalties, used for nominal-size control-plane passes (e.g.
// FDE's in-place encryption of the whole partition).
func (m *Meter) ChargeSeqRead(n uint64) {
	m.clock.Advance(bytesDuration(n, m.profile.SeqReadBps))
}

// ChargeSeqWrite charges a bulk streaming write of n bytes with no
// per-request penalties.
func (m *Meter) ChargeSeqWrite(n uint64) {
	m.clock.Advance(bytesDuration(n, m.profile.SeqWriteBps))
}
