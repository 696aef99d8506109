// Package obs is the telemetry substrate of the MobiCeal reproduction:
// lock-cheap metric primitives every layer of the stack shares — atomic
// counters and gauges, power-of-two-bucket latency histograms, a bounded
// ring-buffer event log, and an opt-in per-request trace recorder.
//
// Everything in this package is memory-only by design. MobiCeal's threat
// model is a multi-snapshot adversary who seizes the device; a seized
// device must carry no telemetry, so nothing here is ever persisted, and
// the whole surface resets with the process (the paper's mode-switch
// power-cycle discipline therefore also clears it). The second design rule
// is choke-point accounting: layers record public-facing metrics only at
// code paths that dummy noise and hidden traffic traverse identically, so
// the numbers are volume-blind by construction — an observer holding every
// public counter cannot separate hidden writes from the dummy-write
// distribution (see DESIGN.md "Observability" for the full argument, and
// the telemetry-deniability tests that pin it).
//
// Overhead discipline: Counter and Gauge are single atomic RMW operations,
// Histogram.Observe is one atomic add into a bucket indexed by bit length,
// and none of the hot-path primitives allocate. The event log and tracer
// take a mutex but sit on cold paths (mode changes) or behind an atomic
// enabled check (tracing is opt-in and costs one atomic load when off).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a cumulative atomic counter. The zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic level (queue depth, in-flight count,
// stage stock). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// epoch is the process-local monotonic base for span timestamps. Telemetry
// deliberately timestamps against process start, not wall time: the surface
// is memory-only and per-process, and a monotonic delta is all latency math
// needs.
var epoch = time.Now()

// NowNS returns a monotonic process-relative timestamp in nanoseconds. It
// is the clock the tracer and the scheduler's span timings share.
func NowNS() int64 { return int64(time.Since(epoch)) }

// Event is one entry of an EventLog: a state transition worth keeping
// (pool mode change, mount-time recovery, barrier failure). Events carry
// no volume identity — they describe the shared machinery only.
type Event struct {
	// Seq is the event's 1-based sequence number since process start.
	// The ring keeps only the newest entries; a Snapshot whose first
	// event has Seq > 1 has lost (Seq-1) older events.
	Seq uint64 `json:"seq"`
	// At is the process-relative time of the event (see NowNS).
	At time.Duration `json:"at_ns"`
	// Kind classifies the event ("mode", "recovery", ...).
	Kind string `json:"kind"`
	// Detail is the human-readable description.
	Detail string `json:"detail"`
}

// EventLog is a bounded ring buffer of Events. Appends past the capacity
// overwrite the oldest entry; the log never grows, so an arbitrarily long
// session holds a bounded telemetry footprint. The zero value is ready to
// use with DefaultEventLogSize capacity.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	seq  uint64
}

// DefaultEventLogSize is the ring's capacity.
const DefaultEventLogSize = 128

// Append records an event. Safe for concurrent use.
func (l *EventLog) Append(kind, detail string) {
	at := time.Since(epoch)
	l.mu.Lock()
	if cap(l.ring) == 0 {
		l.ring = make([]Event, 0, DefaultEventLogSize)
	}
	l.seq++
	e := Event{Seq: l.seq, At: at, Kind: kind, Detail: detail}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[int((l.seq-1)%uint64(cap(l.ring)))] = e
	}
	l.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	out := make([]Event, 0, n)
	if n == 0 {
		return out
	}
	// The ring wraps at cap entries; the oldest retained event sits right
	// after the newest once the log has wrapped.
	start := 0
	if l.seq > uint64(cap(l.ring)) {
		start = int(l.seq % uint64(cap(l.ring)))
	}
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(start+i)%n])
	}
	return out
}
