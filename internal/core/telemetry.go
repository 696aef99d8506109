package core

import (
	"fmt"
	"strings"

	"mobiceal/internal/ioq"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
)

// Telemetry is a point-in-time snapshot of the system's whole observability
// surface: pool health, thin-pool metrics (allocation, commit machinery,
// noise stage, event log), the I/O scheduler, and the accounting wraps
// around the metadata and data regions.
//
// The surface is memory-only — nothing in it is ever persisted, so a seized
// device carries no telemetry — and deniability-safe by construction: every
// counter is recorded either at a choke point that dummy noise and hidden
// traffic traverse identically (pool provisioning, the shared data device)
// or against machinery all volumes share (scheduler, commit door). There
// are no per-volume numbers and no dummy/real split anywhere in this
// struct; see DESIGN.md "Observability" for the full argument and the
// telemetry-deniability tests that pin it.
type Telemetry struct {
	// Mode and Reason mirror Health: the pool's health-ladder position.
	Mode   string `json:"mode"`
	Reason string `json:"reason,omitempty"`
	// TxID is the last durable metadata transaction; AllocatedBlocks and
	// FreeBlocks split the data region (dm-thin's status line numbers).
	TxID            uint64 `json:"tx_id"`
	AllocatedBlocks uint64 `json:"allocated_blocks"`
	FreeBlocks      uint64 `json:"free_blocks"`

	Pool thinp.PoolSnapshot  `json:"pool"`
	IO   ioq.MetricsSnapshot `json:"io"`

	Data storage.DeviceSnapshot `json:"data"`
	Meta storage.DeviceSnapshot `json:"meta"`

	// File is the base device's syscall accounting, present only when the
	// system sits on a backend that reports one (a FileDevice): vectored
	// transfer calls, segments per call, retry-loop interventions, batches
	// served by the submission ring (and whether there is one), and the
	// direct-mode flag. Like everything else here it is aggregate per
	// device — one file serves every volume, so the numbers attribute
	// nothing.
	File *storage.FileSyscalls `json:"file,omitempty"`
}

// Telemetry snapshots the system's observability surface. Counters are
// individually atomic; a snapshot taken against live traffic may be off by
// the operations in flight.
func (s *System) Telemetry() Telemetry {
	mode, reason := s.pool.Status()
	t := Telemetry{
		Mode:            mode.String(),
		Reason:          reason,
		TxID:            s.pool.TransactionID(),
		AllocatedBlocks: s.pool.AllocatedBlocks(),
		FreeBlocks:      s.pool.FreeBlocks(),
		Pool:            s.pool.MetricsSnapshot(),
		IO:              s.Scheduler().MetricsSnapshot(),
		Data:            s.dataStats.Metrics().Snapshot(),
		Meta:            s.metaStats.Metrics().Snapshot(),
	}
	if rep, ok := s.dev.(storage.SyscallReporter); ok {
		sc := rep.Syscalls()
		t.File = &sc
	}
	return t
}

// String renders the snapshot as a dm-thin-`status`-style one-liner:
//
//	rw tx 7 data 120/4096 commits 12/3 alloc(n=120 mean=1µs p50≤2µs p99≤4µs)
//	io sub 240 done 240 qd 0 inflight 0 merge 0.42 fail 0 dev w 140/573440
//
// Fixed-position fields first (mode, transaction, space), then the
// machinery gauges a human scans for.
func (t Telemetry) String() string {
	var b strings.Builder
	mode := t.Mode
	switch mode {
	case "write":
		mode = "rw"
	case "read-only":
		mode = "ro"
	}
	fmt.Fprintf(&b, "%s tx %d data %d/%d", mode, t.TxID,
		t.AllocatedBlocks, t.AllocatedBlocks+t.FreeBlocks)
	if t.Reason != "" {
		fmt.Fprintf(&b, " (%s)", t.Reason)
	}
	fmt.Fprintf(&b, " commits %d/%d alloc(%s)",
		t.Pool.CommitCalls, t.Pool.CommitFlips, t.Pool.AllocLat)
	fmt.Fprintf(&b, " io sub %d done %d qd %d inflight %d merge %.2f fail %d",
		t.IO.Submitted, t.IO.Completed, t.IO.QueueDepth, t.IO.InFlight,
		t.IO.MergeRatio(), t.IO.Failures)
	fmt.Fprintf(&b, " dev w %d/%d", t.Data.WriteBlocks, t.Data.BytesWrite)
	if s := t.ShardSummary(); s != "" {
		fmt.Fprintf(&b, " %s", s)
	}
	if f := t.File; f != nil {
		mode := "buffered"
		if f.Direct {
			mode = "direct"
		}
		ring := "off"
		if f.Ring {
			ring = "on"
		}
		fmt.Fprintf(&b, " file %s preadv %d/%d pwritev %d/%d batch %d/%d ring %s",
			mode, f.PreadvCalls, f.ReadSegs, f.PwritevCalls, f.WriteSegs,
			f.BatchCalls, f.BatchReqs, ring)
	}
	return b.String()
}

// ShardSummary condenses the per-shard allocation gauges into one scannable
// fragment: shard count, min..max free blocks, the min/max free balance
// ratio (1.00 = perfectly even, small = one shard nearly drained while
// another is full). Empty when the snapshot carries no shard data (old
// snapshots, single-shard pools with no gauges).
func (t Telemetry) ShardSummary() string {
	shards := t.Pool.Shards
	if len(shards) == 0 {
		return ""
	}
	minFree, maxFree := shards[0].Free, shards[0].Free
	for _, sh := range shards {
		if sh.Free < minFree {
			minFree = sh.Free
		}
		if sh.Free > maxFree {
			maxFree = sh.Free
		}
	}
	bal := 1.0
	if maxFree > 0 {
		bal = float64(minFree) / float64(maxFree)
	}
	return fmt.Sprintf("shards %d free %d..%d bal %.2f",
		len(shards), minFree, maxFree, bal)
}
