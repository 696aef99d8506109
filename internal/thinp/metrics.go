package thinp

import "mobiceal/internal/obs"

// PoolMetrics is the pool's obs-backed accounting. Every public-facing
// number here is recorded at a choke point that real provisioning and the
// dummy-write mechanism traverse identically — allocate and release — or
// describes machinery shared by every volume (commit rounds, noise-stage
// stock, health events). Nothing is counted per thin device, so the
// surface cannot attribute traffic to the public or hidden half of a
// system; the per-kind split (DummyBlocksWritten) stays an internal
// experiments-only accessor and is deliberately absent from Snapshot (see
// DESIGN.md "Observability").
type PoolMetrics struct {
	// Provisions counts physical blocks handed out by the allocator; real
	// provisioning and dummy-write allocations both pass through allocate,
	// so their counts are indistinguishable by construction. Releases
	// counts blocks freed back (discards, unwinds).
	Provisions obs.Counter
	Releases   obs.Counter
	// AllocLat is the latency of one allocate call (allocMu wait, free-block
	// pick and bitmap bookkeeping), observed at the same choke point.
	AllocLat obs.Histogram

	// CommitCalls counts Commit calls served, CommitFlips the
	// successful A/B superblock flips they cost; calls/flips is the group
	// commit's folding factor (PoolSnapshot.FoldRatio).
	CommitCalls obs.Counter
	CommitFlips obs.Counter
	// CommitFoldLat is commit phase 1 (delta fold into the image arena
	// under the mapping lock), CommitWriteLat phase 2 (inactive-slot device
	// I/O, retries included), CommitTotalLat the whole round.
	CommitFoldLat  obs.Histogram
	CommitWriteLat obs.Histogram
	CommitTotalLat obs.Histogram

	// NoiseStaged is the current stock of pre-generated dummy-noise
	// payloads (0..noiseStageTarget).
	NoiseStaged obs.Gauge

	// Events records pool-global state transitions: health-ladder moves,
	// out-of-data-space recovery, format/open. Entries describe the shared
	// machinery only and never name a thin device.
	Events obs.EventLog
}

// ShardSnapshot is a declaration only: the pool has one allocator and no
// shards, so PoolSnapshot.Shards is always empty. It survives because the
// frozen bench module reads it (thinp.shard_steals_per_op,
// thinp.shard_lock_wait_us); the next benchmark PR drops all three
// (ROADMAP).
type ShardSnapshot struct {
	Free    int64            `json:"free"`
	Steals  uint64           `json:"steals"`
	LockLat obs.HistSnapshot `json:"lock_lat"`
}

// PoolSnapshot is a point-in-time copy of PoolMetrics, the form that
// travels in telemetry snapshots.
type PoolSnapshot struct {
	Provisions uint64           `json:"provisions"`
	Releases   uint64           `json:"releases"`
	AllocLat   obs.HistSnapshot `json:"alloc_lat"`

	CommitCalls    uint64           `json:"commit_calls"`
	CommitFlips    uint64           `json:"commit_flips"`
	CommitFoldLat  obs.HistSnapshot `json:"commit_fold_lat"`
	CommitWriteLat obs.HistSnapshot `json:"commit_write_lat"`
	CommitTotalLat obs.HistSnapshot `json:"commit_total_lat"`

	NoiseStaged int64 `json:"noise_staged"`

	// Shards is always empty (see ShardSnapshot).
	Shards []ShardSnapshot `json:"shards,omitempty"`

	Events []obs.Event `json:"events"`
}

// FoldRatio is calls per flip — how many Commit calls one superblock flip
// covered on average (1.0 for serial committers, higher under group
// commit). 0 with no flips yet.
func (s PoolSnapshot) FoldRatio() float64 {
	if s.CommitFlips == 0 {
		return 0
	}
	return float64(s.CommitCalls) / float64(s.CommitFlips)
}

// Metrics exposes the pool's live counters.
func (p *Pool) Metrics() *PoolMetrics { return &p.m }

// MetricsSnapshot captures the pool's current metric values. CommitFlips
// is loaded before CommitCalls so the snapshot preserves calls >= flips
// even against racing commits.
func (p *Pool) MetricsSnapshot() PoolSnapshot {
	m := &p.m
	flips := m.CommitFlips.Load()
	return PoolSnapshot{
		Provisions:     m.Provisions.Load(),
		Releases:       m.Releases.Load(),
		AllocLat:       m.AllocLat.Snapshot(),
		CommitCalls:    m.CommitCalls.Load(),
		CommitFlips:    flips,
		CommitFoldLat:  m.CommitFoldLat.Snapshot(),
		CommitWriteLat: m.CommitWriteLat.Snapshot(),
		CommitTotalLat: m.CommitTotalLat.Snapshot(),
		NoiseStaged:    m.NoiseStaged.Load(),
		Events:         m.Events.Snapshot(),
	}
}
