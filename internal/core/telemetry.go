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
//	io sub 240 done 240 qd 0 inflight 0 fail 0 dev w 140/573440
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
	fmt.Fprintf(&b, " io sub %d done %d qd %d inflight %d fail %d",
		t.IO.Submitted, t.IO.Completed, t.IO.QueueDepth, t.IO.InFlight,
		t.IO.Failures)
	fmt.Fprintf(&b, " dev w %d/%d", t.Data.WriteBlocks, t.Data.BytesWrite)
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
