package obs

// Flight recorder: a blktrace-style causal trace of request lifecycles.
//
// Where the old Tracer kept one flat span per request (recorded once, at
// completion), the flight recorder keeps a bounded ring of *events*: each
// stage a request passes through appends one fixed-size record keyed by a
// per-request id, so an offline analyzer (internal/obs/analyze.go, surfaced
// as `mobiceal trace`) can reconstruct Q2D/D2C/Q2C latency attribution,
// queue-depth timelines, and commit-round folding — the btt pipeline, in
// process.
//
// The stage vocabulary mirrors blktrace actions where an analogue exists
// (Q=queued, G=handed to a worker, D=dispatched, C=completed) and adds
// the thinp stages the kernel hides inside dm (map-resolve, provision,
// commit-join, commit-flip) plus the leaf device op recorded by
// storage.StatsDevice.
//
// Design constraints, in order:
//
//  1. Disabled cost ≈ one atomic load. Every Record call starts with a
//     nil check and one atomic.Bool load; a disabled recorder does nothing
//     else. Call sites on the hot path pay nothing when tracing is off.
//  2. Lock-free when enabled. The ring is sharded; a writer claims a slot
//     with one per-shard atomic Add and publishes through a seqlock-style
//     per-slot sequence word. Every slot field is an atomic, so concurrent
//     readers never see torn values (and the race detector agrees); the
//     sequence re-check discards slots overwritten mid-read.
//  3. Memory-only. Nothing here ever reaches a device — see the
//     Observability section of DESIGN.md for why persistence would be a
//     side channel in MobiCeal's threat model.
//  4. Deniability-safe vocabulary. Events carry NO block addresses, NO
//     thin/volume ids — only stage, op kind, block count, error class and
//     a stage-specific aux (attempt number, commit round). Dummy writes
//     traverse the same choke points as hidden writes and emit the same
//     per-block event shapes.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Stage identifies one step of a request's lifecycle.
type Stage uint8

const (
	stageInvalid Stage = iota

	// Scheduler stages (blktrace actions).

	// StageQueued (Q): request entered a volume queue (ioq.Submit*).
	StageQueued
	// StageStaged (G): request handed to a worker.
	StageStaged
	// StageDispatch (D): one device-level attempt started; Aux holds the
	// 1-based attempt number (retries re-dispatch).
	StageDispatch
	// StageComplete (C): terminal completion, or — when Aux is a nonzero
	// attempt number — one failed attempt that will be retried. Err
	// carries the error class.
	StageComplete

	// Thin-pool stages.

	// StageMapResolve: the mapping walk resolved N virtual blocks to
	// physical extents (reads: before the copy; writes: the fully-mapped
	// walk immediately before the extent writes).
	StageMapResolve
	// StageProvision: one physical block was allocated. Recorded inside
	// the allocator choke point, so real provisioning and dummy writes
	// are indistinguishable here by construction.
	StageProvision
	// StageCommitJoin: the request reached the group-commit door; Aux is
	// the commit round it folded into.
	StageCommitJoin
	// StageCommitFlip: a commit round flipped the metadata slot; Aux is
	// the round, N the number of callers folded into it.
	StageCommitFlip

	// StageDevOp: a leaf device operation observed by storage.StatsDevice.
	StageDevOp

	stageCount
)

var stageNames = [stageCount]string{
	stageInvalid:    "?",
	StageQueued:     "Q",
	StageStaged:     "G",
	StageDispatch:   "D",
	StageComplete:   "C",
	StageMapResolve: "map-resolve",
	StageProvision:  "provision",
	StageCommitJoin: "commit-join",
	StageCommitFlip: "commit-flip",
	StageDevOp:      "devop",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "?"
}

// FlightOp is the request kind an event belongs to. It mirrors ioq's op
// vocabulary without importing it (obs sits below every other package).
type FlightOp uint8

const (
	FOpNone FlightOp = iota
	FOpRead
	FOpWrite
	FOpDiscard
	FOpSync
	FOpQuiesce

	fopCount
)

var fopNames = [fopCount]string{"", "read", "write", "discard", "sync", "quiesce"}

func (o FlightOp) String() string {
	if int(o) < len(fopNames) {
		return fopNames[o]
	}
	return "?"
}

// ErrClass is the coarse error classification attached to completion
// events. It deliberately carries no error text: class is enough for
// attribution, and strings would allocate on the record path.
type ErrClass uint8

const (
	ClassNone ErrClass = iota
	ClassTransient
	ClassMedium
	ClassOther

	classCount
)

var classNames = [classCount]string{"", "transient", "medium", "error"}

func (c ErrClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "?"
}

// FlightEvent is one decoded lifecycle event. At is nanoseconds since the
// obs process epoch (same clock as NowNS).
type FlightEvent struct {
	ReqID uint64
	At    int64
	Stage Stage
	Op    FlightOp
	Err   ErrClass
	N     uint32
	Aux   uint64
}

// flightWire is the JSON shape of an event (one object per JSONL line).
type flightWire struct {
	ID    uint64 `json:"id"`
	AtNS  int64  `json:"at_ns"`
	Stage string `json:"stage"`
	Op    string `json:"op,omitempty"`
	N     uint32 `json:"n,omitempty"`
	Err   string `json:"err,omitempty"`
	Aux   uint64 `json:"aux,omitempty"`
}

// MarshalJSON renders the event with symbolic stage/op/err names.
func (e FlightEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(flightWire{
		ID: e.ReqID, AtNS: e.At, Stage: e.Stage.String(),
		Op: e.Op.String(), N: e.N, Err: e.Err.String(), Aux: e.Aux,
	})
}

// UnmarshalJSON parses the symbolic form back (for offline replay).
func (e *FlightEvent) UnmarshalJSON(b []byte) error {
	var w flightWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	st := stageInvalid
	for i, n := range stageNames {
		if n == w.Stage && Stage(i) != stageInvalid {
			st = Stage(i)
		}
	}
	if st == stageInvalid {
		return fmt.Errorf("obs: unknown stage %q", w.Stage)
	}
	op := FOpNone
	for i, n := range fopNames {
		if n == w.Op {
			op = FlightOp(i)
		}
	}
	cl := ClassNone
	for i, n := range classNames {
		if n == w.Err {
			cl = ErrClass(i)
		}
	}
	*e = FlightEvent{ReqID: w.ID, At: w.AtNS, Stage: st, Op: op, Err: cl, N: w.N, Aux: w.Aux}
	return nil
}

// flightSlot is one published event. All fields are atomics: the writer
// stores seq=0 (invalidate), then the payload, then seq=ticket (publish);
// a reader accepts the payload only if seq is nonzero and unchanged across
// the read. Tickets are monotone per shard, so ABA cannot occur.
type flightSlot struct {
	seq   atomic.Uint64
	reqID atomic.Uint64
	at    atomic.Int64
	word  atomic.Uint64 // stage<<56 | op<<48 | err<<40 | n
	aux   atomic.Uint64
}

func packWord(st Stage, op FlightOp, ec ErrClass, n uint32) uint64 {
	return uint64(st)<<56 | uint64(op)<<48 | uint64(ec)<<40 | uint64(n)
}

func unpackWord(w uint64) (Stage, FlightOp, ErrClass, uint32) {
	return Stage(w >> 56), FlightOp(w >> 48 & 0xff), ErrClass(w >> 40 & 0xff), uint32(w)
}

// flightShard holds one cursor and its slice of the ring. The pad keeps
// neighbouring cursors off one cache line.
type flightShard struct {
	cursor atomic.Uint64
	_      [7]uint64
	slots  []flightSlot
}

const (
	// flightShards is the shard count; events of one request hash to one
	// shard, so per-request ticket order is a total order.
	flightShards = 8
	// DefaultFlightEvents is the total ring capacity when NewFlightRecorder
	// is given a non-positive size.
	DefaultFlightEvents = 1 << 14
)

// FlightRecorder is the sharded lifecycle event ring. The zero value is
// unusable; a nil *FlightRecorder is a valid always-disabled recorder, so
// call sites never need a nil check beyond the one Record itself does.
type FlightRecorder struct {
	on     atomic.Bool
	nextID atomic.Uint64
	spread atomic.Uint64 // shard picker for id-0 events
	mask   uint64        // per-shard slot index mask (len-1, power of two)
	shards [flightShards]flightShard
}

// NewFlightRecorder returns a disabled recorder holding roughly `events`
// records (rounded up to a power of two per shard; <=0 means
// DefaultFlightEvents). Memory is allocated up front so enabling mid-run
// never allocates on an I/O path.
func NewFlightRecorder(events int) *FlightRecorder {
	if events <= 0 {
		events = DefaultFlightEvents
	}
	per := 1
	for per < (events+flightShards-1)/flightShards {
		per <<= 1
	}
	r := &FlightRecorder{mask: uint64(per - 1)}
	for i := range r.shards {
		r.shards[i].slots = make([]flightSlot, per)
	}
	return r
}

// Enabled reports whether recording is on. Nil-safe.
func (r *FlightRecorder) Enabled() bool { return r != nil && r.on.Load() }

// SetEnabled switches recording on or off. Nil-safe no-op when nil.
func (r *FlightRecorder) SetEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// NextID returns a fresh nonzero request id. Nil-safe (returns 0, the
// "untagged" id, when the recorder is nil).
func (r *FlightRecorder) NextID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Capacity returns the total number of event slots.
func (r *FlightRecorder) Capacity() int {
	if r == nil {
		return 0
	}
	return flightShards * int(r.mask+1)
}

// Record appends one event. fid may be 0 (untagged). Disabled cost is the
// nil check plus one atomic load; enabled cost is one atomic Add and six
// atomic stores, no locks, no allocation.
func (r *FlightRecorder) Record(fid uint64, st Stage, op FlightOp, n uint32, ec ErrClass, aux uint64) {
	if r == nil || !r.on.Load() {
		return
	}
	r.record(fid, st, op, n, ec, aux)
}

func (r *FlightRecorder) record(fid uint64, st Stage, op FlightOp, n uint32, ec ErrClass, aux uint64) {
	var si uint64
	if fid != 0 {
		si = (fid * 0x9e3779b97f4a7c15) >> 56 % flightShards
	} else {
		si = r.spread.Add(1) % flightShards
	}
	sh := &r.shards[si]
	ticket := sh.cursor.Add(1)
	s := &sh.slots[(ticket-1)&r.mask]
	s.seq.Store(0)
	s.reqID.Store(fid)
	s.at.Store(NowNS())
	s.word.Store(packWord(st, op, ec, n))
	s.aux.Store(aux)
	s.seq.Store(ticket)
}

// Reset discards all recorded events (recording state is unchanged).
func (r *FlightRecorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			sh.slots[j].seq.Store(0)
		}
	}
}

// Events returns a snapshot of the ring, sorted by timestamp (ties keep
// per-shard ticket order, which is per-request causal order). Events being
// overwritten concurrently are skipped; the snapshot is taken by the
// scraper and costs the I/O path nothing.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	type keyed struct {
		ev     FlightEvent
		ticket uint64
		shard  uint64
	}
	var all []keyed
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			s := &sh.slots[j]
			seq1 := s.seq.Load()
			if seq1 == 0 {
				continue
			}
			ev := FlightEvent{ReqID: s.reqID.Load(), At: s.at.Load(), Aux: s.aux.Load()}
			ev.Stage, ev.Op, ev.Err, ev.N = unpackWord(s.word.Load())
			if s.seq.Load() != seq1 {
				continue // overwritten mid-read
			}
			all = append(all, keyed{ev: ev, ticket: seq1, shard: uint64(i)})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].ev.At != all[b].ev.At {
			return all[a].ev.At < all[b].ev.At
		}
		if all[a].shard != all[b].shard {
			return all[a].shard < all[b].shard
		}
		return all[a].ticket < all[b].ticket
	})
	out := make([]FlightEvent, len(all))
	for i := range all {
		out[i] = all[i].ev
	}
	return out
}

// WriteJSONL streams the current snapshot as one JSON object per line —
// the raw-event export format `mobiceal trace -jsonl` emits and
// ReadJSONL parses back.
func (r *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range r.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL event stream produced by WriteJSONL. Blank
// lines are skipped.
func ReadJSONL(rd io.Reader) ([]FlightEvent, error) {
	var out []FlightEvent
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev FlightEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
