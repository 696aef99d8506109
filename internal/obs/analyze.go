package obs

// Offline analysis of flight-recorder event streams — the btt analogue.
// Given a snapshot (live or replayed from JSONL), Analyze reconstructs per
// request the classic blktrace intervals:
//
//	Q2D  submit → first device dispatch   (time spent queued)
//	D2C  last dispatch → completion       (device service time, last attempt)
//	Q2C  submit → completion              (total request latency)
//
// plus time-weighted queue-depth and in-flight timelines (from Q/D/C
// transitions), and commit-round attribution (how many callers folded
// into each metadata slot flip, and how long each waited on the
// group-commit door).

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// LatDist is an exact latency distribution (computed from the individual
// samples, not histogram buckets — a trace window is bounded, so we can
// afford exact percentiles here).
type LatDist struct {
	Count  int   `json:"count"`
	MinNS  int64 `json:"min_ns"`
	MaxNS  int64 `json:"max_ns"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
}

func distOf(samples []int64) LatDist {
	if len(samples) == 0 {
		return LatDist{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum int64
	for _, s := range samples {
		sum += s
	}
	pct := func(q float64) int64 {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return LatDist{
		Count:  len(samples),
		MinNS:  samples[0],
		MaxNS:  samples[len(samples)-1],
		MeanNS: sum / int64(len(samples)),
		P50NS:  pct(0.50),
		P90NS:  pct(0.90),
		P99NS:  pct(0.99),
	}
}

// String renders the distribution compactly for human tables.
func (d LatDist) String() string {
	if d.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v mean=%v p50=%v p90=%v p99=%v max=%v",
		d.Count, time.Duration(d.MinNS), time.Duration(d.MeanNS),
		time.Duration(d.P50NS), time.Duration(d.P90NS),
		time.Duration(d.P99NS), time.Duration(d.MaxNS))
}

// OpLat is the Q2D/D2C/Q2C attribution for one op kind.
type OpLat struct {
	Op  string  `json:"op"`
	Q2D LatDist `json:"q2d"`
	D2C LatDist `json:"d2c"`
	Q2C LatDist `json:"q2c"`
}

// CommitRound is one metadata slot flip and the callers folded into it.
type CommitRound struct {
	Round    uint64  `json:"round"`
	Folded   int     `json:"folded"` // callers folded (from the flip event)
	Joins    int     `json:"joins"`  // join events observed in-window
	FlipAtNS int64   `json:"flip_at_ns"`
	DoorWait LatDist `json:"door_wait"` // per-joiner flip.At - join.At
}

// CommitSummary aggregates commit-round attribution across the window.
type CommitSummary struct {
	Rounds     int           `json:"rounds"`
	Folded     int           `json:"folded"`
	MeanFolded float64       `json:"mean_folded"`
	DoorWait   LatDist       `json:"door_wait"`
	PerRound   []CommitRound `json:"per_round,omitempty"`
}

// TimelinePoint is one sample of the queue-depth / in-flight timelines.
type TimelinePoint struct {
	AtNS     int64 `json:"at_ns"`
	Queued   int   `json:"queued"`
	InFlight int   `json:"in_flight"`
}

// StageCount is the number of events seen for one stage.
type StageCount struct {
	Stage string `json:"stage"`
	Count int    `json:"count"`
	N     uint64 `json:"blocks"` // sum of per-event block counts
}

// TraceReport is the full analysis of one event window.
type TraceReport struct {
	Events    int             `json:"events"`
	Requests  int             `json:"requests"`  // distinct nonzero request ids
	Completed int             `json:"completed"` // requests with a terminal C
	SpanNS    int64           `json:"span_ns"`   // last event At - first event At
	Stages    []StageCount    `json:"stages"`
	Ops       []OpLat         `json:"ops"`
	QueueMax  int             `json:"queue_max"`
	QueueMean float64         `json:"queue_mean"` // time-weighted
	FlightMax int             `json:"in_flight_max"`
	Commits   CommitSummary   `json:"commits"`
	Timeline  []TimelinePoint `json:"timeline,omitempty"`
	Errors    map[string]int  `json:"errors,omitempty"` // error class -> completions
}

// maxTimelinePoints caps the emitted timeline; transitions beyond it are
// uniformly downsampled so the report stays plottable at any window size.
const maxTimelinePoints = 256

type reqTrace struct {
	op     FlightOp
	q      int64
	firstD int64
	lastD  int64
	c      int64
	hasQ   bool
	hasD   bool
	done   bool // terminal C (Aux==0 on a C event)
}

// Analyze builds a TraceReport from an event stream (need not be sorted;
// it is sorted by timestamp internally, as Events() snapshots already are).
func Analyze(events []FlightEvent) *TraceReport {
	evs := make([]FlightEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	rep := &TraceReport{Events: len(evs), Errors: map[string]int{}}
	if len(evs) > 0 {
		rep.SpanNS = evs[len(evs)-1].At - evs[0].At
	}

	reqs := map[uint64]*reqTrace{}
	var stageCounts [stageCount]StageCount
	joins := map[uint64][]int64{}
	flips := map[uint64]*CommitRound{}

	// Timeline state: every Q/D/C transition is a point.
	var queued, inflight, queueMax, flightMax int
	var points []TimelinePoint

	for _, ev := range evs {
		sc := &stageCounts[ev.Stage]
		sc.Count++
		sc.N += uint64(ev.N)

		var rt *reqTrace
		if ev.ReqID != 0 {
			rt = reqs[ev.ReqID]
			if rt == nil {
				rt = &reqTrace{op: ev.Op}
				reqs[ev.ReqID] = rt
			}
			if rt.op == FOpNone {
				rt.op = ev.Op
			}
		}

		depthChanged := false
		switch ev.Stage {
		case StageQueued:
			queued++
			depthChanged = true
			if rt != nil {
				rt.q, rt.hasQ = ev.At, true
			}
		case StageDispatch:
			if rt != nil {
				if !rt.hasD {
					rt.firstD, rt.hasD = ev.At, true
					if queued > 0 {
						queued--
					}
					inflight++
					depthChanged = true
				}
				rt.lastD = ev.At
			}
		case StageComplete:
			if ev.Aux == 0 { // terminal completion
				if rt != nil && !rt.done {
					rt.c, rt.done = ev.At, true
					if rt.hasD {
						if inflight > 0 {
							inflight--
						}
					} else if queued > 0 {
						queued--
					}
					depthChanged = true
				}
				if ev.Err != ClassNone {
					rep.Errors[ev.Err.String()]++
				}
			} else if ev.Err != ClassNone {
				rep.Errors[ev.Err.String()]++
			}
		case StageCommitJoin:
			joins[ev.Aux] = append(joins[ev.Aux], ev.At)
		case StageCommitFlip:
			flips[ev.Aux] = &CommitRound{Round: ev.Aux, Folded: int(ev.N), FlipAtNS: ev.At}
		}

		if depthChanged {
			points = append(points, TimelinePoint{AtNS: ev.At, Queued: queued, InFlight: inflight})
			if queued > queueMax {
				queueMax = queued
			}
			if inflight > flightMax {
				flightMax = inflight
			}
		}
	}

	// Time-weighted mean queue depth from the transition points.
	if len(points) > 1 {
		var integral float64
		for i := 1; i < len(points); i++ {
			dt := float64(points[i].AtNS - points[i-1].AtNS)
			integral += float64(points[i-1].Queued) * dt
		}
		span := float64(points[len(points)-1].AtNS - points[0].AtNS)
		if span > 0 {
			rep.QueueMean = integral / span
		}
	}
	rep.QueueMax, rep.FlightMax = queueMax, flightMax

	// Downsample the timeline.
	if len(points) > maxTimelinePoints {
		stride := (len(points) + maxTimelinePoints - 1) / maxTimelinePoints
		var ds []TimelinePoint
		for i := 0; i < len(points); i += stride {
			ds = append(ds, points[i])
		}
		ds = append(ds, points[len(points)-1])
		points = ds
	}
	rep.Timeline = points

	// Per-op latency attribution.
	type opAcc struct{ q2d, d2c, q2c []int64 }
	accs := map[FlightOp]*opAcc{}
	for _, rt := range reqs {
		if !rt.done {
			continue
		}
		rep.Completed++
		a := accs[rt.op]
		if a == nil {
			a = &opAcc{}
			accs[rt.op] = a
		}
		if rt.hasQ && rt.hasD {
			a.q2d = append(a.q2d, rt.firstD-rt.q)
		}
		if rt.hasD {
			a.d2c = append(a.d2c, rt.c-rt.lastD)
		}
		if rt.hasQ {
			a.q2c = append(a.q2c, rt.c-rt.q)
		}
	}
	rep.Requests = len(reqs)
	var ops []FlightOp
	for op := range accs {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		a := accs[op]
		rep.Ops = append(rep.Ops, OpLat{
			Op: op.String(), Q2D: distOf(a.q2d), D2C: distOf(a.d2c), Q2C: distOf(a.q2c),
		})
	}

	// Stage table (skip empty stages).
	for i := range stageCounts {
		if stageCounts[i].Count > 0 {
			rep.Stages = append(rep.Stages, StageCount{
				Stage: Stage(i).String(), Count: stageCounts[i].Count, N: stageCounts[i].N,
			})
		}
	}

	// Commit attribution.
	var rounds []uint64
	for r := range flips {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	var allWaits []int64
	for _, r := range rounds {
		cr := flips[r]
		var waits []int64
		for _, at := range joins[r] {
			if at <= cr.FlipAtNS {
				waits = append(waits, cr.FlipAtNS-at)
			}
		}
		cr.Joins = len(joins[r])
		allWaits = append(allWaits, waits...)
		cr.DoorWait = distOf(waits)
		rep.Commits.Rounds++
		rep.Commits.Folded += cr.Folded
		rep.Commits.PerRound = append(rep.Commits.PerRound, *cr)
	}
	if rep.Commits.Rounds > 0 {
		rep.Commits.MeanFolded = float64(rep.Commits.Folded) / float64(rep.Commits.Rounds)
	}
	rep.Commits.DoorWait = distOf(allWaits)
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	return rep
}

// Signatures reduces a capture to what an observer of the export learns
// about each request: one string per request id — its events in order as
// stage/op/blocks/class — with timestamps dropped and the ids erased by
// the grouping. Aux survives only where it is id-free (commit rounds). The
// multiset comes back sorted, so two
// captures compare by plain equality — the deniability tests' oracle.
func Signatures(evs []FlightEvent) []string {
	byReq := map[uint64][]string{}
	var order []uint64
	for _, ev := range evs {
		aux := ""
		if ev.Stage == StageCommitJoin || ev.Stage == StageCommitFlip {
			aux = fmt.Sprintf("@%d", ev.Aux)
		}
		if _, seen := byReq[ev.ReqID]; !seen {
			order = append(order, ev.ReqID)
		}
		byReq[ev.ReqID] = append(byReq[ev.ReqID],
			fmt.Sprintf("%s/%s/%d/%s%s", ev.Stage, ev.Op, ev.N, ev.Err, aux))
	}
	sigs := make([]string, 0, len(order))
	for _, id := range order {
		sigs = append(sigs, strings.Join(byReq[id], " "))
	}
	sort.Strings(sigs)
	return sigs
}
