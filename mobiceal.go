// Package mobiceal is the public API of the MobiCeal reproduction — a
// plausibly deniable encryption (PDE) system for block storage that
// defends against multi-snapshot adversaries (Chang et al., "MobiCeal:
// Towards Secure and Practical Plausibly Deniable Encryption on Mobile
// Devices", DSN 2018).
//
// A MobiCeal device carves one block device into pool metadata, a thin-
// provisioned data area and a 16 KB crypto footer. It exposes n virtual
// volumes: V1 is the public volume (decoy password), a secret subset are
// hidden volumes (one per hidden password, index derived from the
// password), and the rest are dummy volumes that absorb the system's
// dummy writes. Random block allocation plus dummy writes make the changes
// caused by hidden-volume writes deniable across storage snapshots.
//
// Quick start:
//
//	dev := mobiceal.NewMemDevice(4096, 1<<20)
//	sys, err := mobiceal.Setup(dev, mobiceal.Config{NumVolumes: 8},
//	    "decoy-password", []string{"hidden-password"})
//	pub, _ := sys.OpenPublic("decoy-password")
//	fs, _ := pub.Format()                    // mount any block FS on top
//	hid, _ := sys.OpenHidden("hidden-password")
//
// See the examples directory for complete scenarios, internal/experiments
// for the paper's evaluation harness, and DESIGN.md for the architecture.
package mobiceal

import (
	"fmt"
	"io"

	"mobiceal/internal/adversary"
	"mobiceal/internal/android"
	"mobiceal/internal/core"
	"mobiceal/internal/ioq"
	"mobiceal/internal/minifs"
	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
)

// Core types re-exported from the implementation packages.
type (
	// Config configures Setup and Open; the zero value selects the
	// paper's defaults (8 volumes, lambda=1, x=50, PBKDF2 2000 rounds).
	// AsyncWorkers is the async API's one parallelism setting: it bounds
	// how many requests — of one volume or of several — are at the device
	// at once.
	Config = core.Config
	// System is an initialized MobiCeal device.
	System = core.System
	// Volume is an opened, decrypted virtual volume.
	Volume = core.Volume
	// Mode distinguishes public from hidden operation.
	Mode = core.Mode
	// GCReport summarizes a garbage-collection pass.
	GCReport = core.GCReport
	// Device is the block-device abstraction everything runs on.
	Device = storage.Device
	// FS is the bundled minimal block file system (any block FS works;
	// this one ships for the examples and tools).
	FS = minifs.FS
	// File is an open file on FS.
	File = minifs.File
	// Snapshot is a point-in-time full device image — what a
	// multi-snapshot adversary captures.
	Snapshot = storage.Snapshot
	// DiffReport is the adversary's correlation of two snapshots.
	DiffReport = adversary.DiffReport
	// Phone simulates the Android integration: boot, screen-lock entrance,
	// fast switching with side-channel isolation.
	Phone = android.MobiCealPhone
	// Future is the completion handle of an asynchronous volume request
	// (Volume.SubmitRead / SubmitWrite / SubmitDiscard / Flush). A
	// completed Flush guarantees everything submitted to that volume
	// before it is durable; concurrent flushes across volumes fold into
	// shared group commits.
	Future = ioq.Future
	// Health is System.Health()'s snapshot of the degradation state: the
	// pool's health-ladder mode plus the I/O scheduler's fault counters.
	Health = core.Health
	// Telemetry is System.Telemetry()'s snapshot of the full observability
	// surface: pool health and space, commit/allocation metrics with
	// latency histograms, scheduler gauges and span timings, and the
	// region devices' traffic accounting. Memory-only and volume-blind by
	// construction (see DESIGN.md "Observability"); String() renders the
	// dm-thin-status-style one-liner that `mobiceal status` prints.
	Telemetry = core.Telemetry
	// PoolMode is the pool health ladder: Write → OutOfDataSpace →
	// ReadOnly → Fail, one-way except the documented space recovery.
	PoolMode = thinp.PoolMode
	// RetryPolicy tunes Config.Retry, the scheduler's transient-fault
	// retry/backoff behaviour.
	RetryPolicy = ioq.RetryPolicy
	// FlakyDevice injects deterministic transient, medium and
	// dying-device faults into a wrapped device, for resilience testing.
	FlakyDevice = storage.FlakyDevice
	// FlakyOptions seeds and rates a FlakyDevice.
	FlakyOptions = storage.FlakyOptions
	// FileOptions configures CreateImageWith/OpenImageWith: direct
	// (O_DIRECT) mode and the strict-alignment contract.
	FileOptions = storage.FileOptions
	// FileSyscalls is the file backend's syscall accounting, surfaced in
	// Telemetry.File on file-backed systems.
	FileSyscalls = storage.FileSyscalls
	// FlightRecorder is the system's request-lifecycle flight recorder: a
	// bounded, memory-only ring of blktrace-style causal events (Q/G/M/D/C
	// plus the thin-pool stages). Obtain it with System.FlightRecorder();
	// it starts disabled and costs one atomic load per choke point while
	// off. Event payloads are deniability-safe: stage, op kind, block
	// count, error class — never block addresses or volume identities.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one decoded lifecycle event from the flight recorder.
	FlightEvent = obs.FlightEvent
	// TraceReport is AnalyzeTrace's btt-style analysis of an event window:
	// Q2D/D2C/Q2C per op kind, queue-depth and in-flight timelines, merge
	// chains and commit-round attribution.
	TraceReport = obs.TraceReport
)

// AnalyzeTrace runs the btt-style offline analysis over a flight-recorder
// event window (live snapshot or JSONL replay).
func AnalyzeTrace(events []FlightEvent) *TraceReport { return obs.Analyze(events) }

// ReadTraceJSONL parses a JSONL event stream written by
// FlightRecorder.WriteJSONL (the `mobiceal trace -jsonl` export format).
func ReadTraceJSONL(r io.Reader) ([]FlightEvent, error) { return obs.ReadJSONL(r) }

// WritePrometheus renders a telemetry snapshot in Prometheus text
// exposition format (hand-rendered, standard library only). The metric
// set is the Telemetry surface re-keyed for scraping — deniability-safe
// like the snapshot itself: no volume, hidden, dummy or real labels.
func WritePrometheus(w io.Writer, t Telemetry) error { return core.WritePrometheus(w, t) }

// Pool health modes (see System.Health).
const (
	PoolWrite          = thinp.PoolWrite
	PoolOutOfDataSpace = thinp.PoolOutOfDataSpace
	PoolReadOnly       = thinp.PoolReadOnly
	PoolFail           = thinp.PoolFail
)

// NewFlakyDevice wraps dev with deterministic fault injection.
func NewFlakyDevice(dev Device, opts FlakyOptions) *FlakyDevice {
	return storage.NewFlakyDevice(dev, opts)
}

// WaitAll waits a set of request futures and returns the first error.
func WaitAll(futures ...*Future) error { return ioq.WaitAll(futures...) }

// Operating modes.
const (
	ModePublic = core.ModePublic
	ModeHidden = core.ModeHidden
)

// Errors callers are expected to test for.
var (
	// ErrBadPassword reports a password that opens no hidden volume.
	ErrBadPassword = core.ErrBadPassword
	// ErrTooSmall reports a device below the minimum layout size.
	ErrTooSmall = core.ErrTooSmall
	// ErrDirectUnsupported reports a direct-I/O image open on a platform
	// or file system without O_DIRECT (non-Linux builds, tmpfs).
	ErrDirectUnsupported = storage.ErrDirectUnsupported
)

// Setup initializes a fresh MobiCeal device with a decoy password and zero
// or more hidden passwords. Existing contents are destroyed.
func Setup(dev Device, cfg Config, decoyPassword string, hiddenPasswords []string) (*System, error) {
	return core.Setup(dev, cfg, decoyPassword, hiddenPasswords)
}

// Open loads an existing MobiCeal device.
func Open(dev Device, cfg Config) (*System, error) {
	return core.Open(dev, cfg)
}

// NewMemDevice returns an in-memory block device with snapshot support,
// suitable for experiments and tests.
func NewMemDevice(blockSize int, numBlocks uint64) *storage.MemDevice {
	return storage.NewMemDevice(blockSize, numBlocks)
}

// CreateImage creates a file-backed block device image.
func CreateImage(path string, blockSize int, numBlocks uint64) (*storage.FileDevice, error) {
	return storage.CreateFileDevice(path, blockSize, numBlocks)
}

// OpenImage opens an existing file-backed device image.
func OpenImage(path string, blockSize int) (*storage.FileDevice, error) {
	return storage.OpenFileDevice(path, blockSize)
}

// CreateImageWith is CreateImage with explicit file-backend options
// (direct I/O, strict buffer alignment).
func CreateImageWith(path string, blockSize int, numBlocks uint64, opts FileOptions) (*storage.FileDevice, error) {
	return storage.CreateFileDeviceWith(path, blockSize, numBlocks, opts)
}

// OpenImageWith is OpenImage with explicit file-backend options.
func OpenImageWith(path string, blockSize int, opts FileOptions) (*storage.FileDevice, error) {
	return storage.OpenFileDeviceWith(path, blockSize, opts)
}

// AlignedBuf allocates a page-aligned buffer of length n — the allocation
// direct-mode images want for zero-copy transfers (misaligned buffers
// still work, at the price of a bounce copy, unless FileOptions.
// StrictAlign rejects them).
func AlignedBuf(n int) []byte { return storage.AlignedBuf(n) }

// NewPhone wraps a device as a simulated Android handset running MobiCeal
// on the LG Nexus 4 profile. nominalBytes models the real userdata
// partition size for control-plane timing (use NominalNexus4Userdata).
func NewPhone(dev Device, cfg Config, nominalBytes uint64) *Phone {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	return android.NewMobiCealPhone(dev, cfg, meter, nominalBytes)
}

// NominalNexus4Userdata is the userdata partition size of the prototype
// device, used for control-plane timing charges.
const NominalNexus4Userdata = 13 << 30

// AnalyzeSnapshots runs the multi-snapshot adversary's correlation on two
// captures of a MobiCeal device: diff, metadata parse, accountability
// classification and randomness tests. A deniable device yields a report
// with no unaccountable and no non-random changes.
func AnalyzeSnapshots(dev Device, before, after *Snapshot) (*DiffReport, error) {
	info, err := core.Layout(dev)
	if err != nil {
		return nil, fmt.Errorf("mobiceal: deriving layout: %w", err)
	}
	return adversary.AnalyzeDiff(before, after, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
}
