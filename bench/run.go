package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"mobiceal"
	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// readBackBlocks is how many working-set blocks are read back and fully
// checked after the system is closed and reopened.
const readBackBlocks = 1024

// options selects one run of one workload.
type options struct {
	w        *workload
	seed     uint64
	seconds  float64 // length of the timed phase
	trace    int     // 0: end-to-end metrics, 1: per-layer metrics, 2: both
	short    bool    // smoke-test sizes: 100 ms windows, 256-op traced run
	dir      string  // where direct images live
	traceOut string  // JSONL span dump of the traced run, "" for none

	// wrap, when set, wraps the backend of the timed run before Setup sees
	// it; bench_test.go plants a corrupting device through it.
	wrap func(storage.Device) storage.Device
}

// result is what one run of one workload produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Problems  []string `json:"problems,omitempty"` // why Correct is false
	// MinWindowSamples is the fewest latency samples any window held; p99
	// needs 1000 for ten samples beyond it.
	MinWindowSamples int `json:"min_window_samples"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// barrier makes the clients of a cycle workload meet when their slices are
// full; the last to arrive runs the recycle for all of them.
type barrier struct {
	mu        sync.Mutex
	cond      *sync.Cond
	parties   int
	arrived   int
	round     int
	abandoned bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until every party has arrived, running fn once in between.
// It returns false when a party has left for good (the phase is over).
func (b *barrier) await(fn func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.abandoned {
		return false
	}
	b.arrived++
	if b.arrived == b.parties {
		fn()
		b.arrived = 0
		b.round++
		b.cond.Broadcast()
		return true
	}
	round := b.round
	for round == b.round && !b.abandoned {
		b.cond.Wait()
	}
	// A round that completed did recycle, even if a party left right after.
	return round != b.round
}

func (b *barrier) abandon() {
	b.mu.Lock()
	b.abandoned = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// recorder holds one client's latencies of a timed phase, preallocated so
// the timed loop never allocates. winEnd[w] is how many samples had been
// taken when window w closed.
type recorder struct {
	lat      []uint32 // ns
	winEnd   []int
	overflow bool
}

// runPhase runs every client of s closed-loop against the public volume
// for d. With recs (one per client) it records each op's latency into
// windows of winLen; an op that completes after d is not recorded.
func (s *stack) runPhase(d, winLen time.Duration, recs []*recorder) {
	bar := newBarrier(len(s.clients))
	tgt := volTarget{s.vol}
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer bar.abandon()
			var rec *recorder
			if recs != nil {
				rec = recs[ci]
			}
			win := 0
			for {
				if c.full() {
					if !bar.await(s.recycle) {
						break
					}
					c.newCycle()
				}
				lat, _ := c.step(tgt, true)
				el := time.Since(start)
				if el >= d {
					break
				}
				if rec == nil {
					continue
				}
				for w := int(el / winLen); win < w; win++ {
					rec.winEnd[win] = len(rec.lat)
				}
				if len(rec.lat) == cap(rec.lat) {
					rec.overflow = true
					break
				}
				rec.lat = append(rec.lat, uint32(min(lat, math.MaxUint32)))
			}
			if rec != nil {
				for ; win < len(rec.winEnd); win++ {
					rec.winEnd[win] = len(rec.lat)
				}
			}
		}()
	}
	wg.Wait()
}

// counters is everything read once before and once after the timed phase.
// The product keeps these always on, so reading them is not tracing.
type counters struct {
	tel              mobiceal.Telemetry
	cpu              time.Duration
	mallocs, mallocB uint64
	decisions, fires uint64
	dummyBlocks      uint64
	rec              recycleStats
}

func (s *stack) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	decisions, fires, _ := s.sys.Policy().Stats()
	return counters{
		tel:         s.sys.Telemetry(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:     ms.Mallocs,
		mallocB:     ms.TotalAlloc,
		decisions:   decisions,
		fires:       fires,
		dummyBlocks: s.sys.Pool().DummyBlocksWritten(),
		rec:         s.rec,
	}
}

// residentMiB is the process's resident set once garbage is collected and
// returned: what the open system holds, without the collector's slack,
// whose size depends on when the last collection happened to run.
func residentMiB() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// runWorkload makes one complete run: set-ups, warm-up, the timed phase,
// output verification and, with tracing asked for, the traced run.
func runWorkload(o options) (*result, error) {
	res := &result{Workload: o.w.name, Seed: o.seed, Correct: true, Metrics: metrics{}}
	winLen, warm := time.Second, 2*time.Second
	if o.short {
		winLen, warm = 100*time.Millisecond, 100*time.Millisecond
	}
	timed := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		// The traced cuts are the measurement here; the timed phase only
		// feeds the always-on counters, and half the time does that.
		timed /= 2
	}
	nWin := max(int(timed/winLen), 1)

	// Set-up, several times over so that setup_s is a median. The last
	// system is the one measured.
	var be *backend
	var st *stack
	var setupS, setupMS []float64
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		var err error
		if be, st, err = setUp(o); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
		setupMS = append(setupMS, ms(st.setupDur))
		if reps := len(setupS); o.trace == 1 || o.short || reps >= 7 || (reps >= 3 && spent >= time.Second) {
			break
		}
		_ = st.sys.Close() // thrown away with its device
		be.close()
		be, st = nil, nil
		runtime.GC()
		debug.FreeOSMemory() // two 256 MiB devices need not be resident at once
	}
	defer be.close()
	closeSys := sync.OnceFunc(func() { _ = st.sys.Close() }) // thrown away with its device
	defer closeSys()
	m := res.Metrics
	m.set("setup_s", median(setupS))

	st.runPhase(warm, winLen, nil)

	// Taken now, warmed up but before the latency buffers exist, so that
	// it is the system's memory and not the benchmark's.
	rss, err := residentMiB()
	if err != nil {
		return nil, err
	}
	m.set("rss_mb", rss)

	ph, err := st.timedPhase(nWin, winLen, res)
	if err != nil {
		return nil, err
	}
	if err := verify(o, st, res); err != nil {
		return nil, err
	}
	m.set("space_amp", ratio(float64(st.fillAllocated), float64(st.fillMapped)))
	if o.trace == 0 {
		return res, nil
	}

	ph.counterMetrics(m)
	m.set("core.setup_ms", median(setupMS))
	m.set("core.open_ms", ms(st.openDur))
	closeSys() // a direct image is handed on to the traced run
	if err := traceRun(o, be, res); err != nil {
		return nil, err
	}
	// The speed-up of two clients over the traced run's serial op.
	m.set("core.concurrency_speedup", ph.opsPerSec*m["core.serial_us"].Value/1e6)
	return res, nil
}

// setUp takes a workload from nothing to ready for its first timed op:
// device create and prefill, Setup, OpenPublic, working-set prefill.
func setUp(o options) (*backend, *stack, error) {
	be, err := newBackend(o.w, o.dir)
	if err != nil {
		return nil, nil, err
	}
	dev := be.dev
	if o.wrap != nil {
		dev = o.wrap(dev)
	}
	st, err := newStack(o.w, o.seed, dev, numClients)
	if err != nil {
		be.close()
		return nil, nil, err
	}
	return be, st, nil
}

// phase is what the timed phase leaves for the per-layer counts.
type phase struct {
	before, after counters
	ops           float64  // timed ops completed
	opsPerSec     float64  // outside recycles
	all           []uint32 // every timed latency, sorted
}

// timedPhase runs nWin windows of winLen with tracing off and fills in the
// end-to-end timing metrics: per window the throughput and the latency
// percentiles over both clients' samples, then one value over the windows.
func (s *stack) timedPhase(nWin int, winLen time.Duration, res *result) (*phase, error) {
	timed := time.Duration(nWin) * winLen
	recs := make([]*recorder, len(s.clients))
	for i := range recs {
		// No op completes in under a microsecond, so this cannot fill.
		recs[i] = &recorder{lat: make([]uint32, 0, int(timed/time.Microsecond)+1024), winEnd: make([]int, nWin)}
	}
	ph := &phase{before: s.snapshot()}
	t0 := time.Now()
	s.runPhase(timed, winLen, recs)
	wall := time.Since(t0)
	ph.after = s.snapshot()

	thr, p50, p99 := make([]float64, nWin), make([]float64, nWin), make([]float64, nWin)
	res.MinWindowSamples = math.MaxInt
	for w := 0; w < nWin; w++ {
		var win []uint32
		for _, r := range recs {
			lo := 0
			if w > 0 {
				lo = r.winEnd[w-1]
			}
			win = append(win, r.lat[lo:r.winEnd[w]]...)
		}
		res.MinWindowSamples = min(res.MinWindowSamples, len(win))
		if len(win) == 0 {
			return nil, fmt.Errorf("%s: window %d completed no op", s.w.name, w)
		}
		slices.Sort(win)
		thr[w] = float64(len(win)*s.w.reqBytes()) / 1e6 / winLen.Seconds()
		p50[w] = float64(win[len(win)/2]) / 1e3
		p99[w] = float64(win[len(win)*99/100]) / 1e3
		ph.all = append(ph.all, win...)
	}
	for _, r := range recs {
		if r.overflow {
			res.problem("latency buffer filled before the timed phase ended")
		}
	}
	slices.Sort(ph.all)
	ph.ops = float64(len(ph.all))
	ph.opsPerSec = ph.ops / (wall - (ph.after.rec.dur - ph.before.rec.dur)).Seconds()

	m := res.Metrics
	windowed := func(name string, v []float64) {
		q1, _, q3 := quartiles(v)
		m[name] = value{Value: trimmedMean(v), Unit: unitOf(name), Q1: q1, Q3: q3}
	}
	windowed("throughput_mbps", thr)
	windowed("lat_p50_us", p50)
	windowed("lat_p99_us", p99)
	devBytes := func(t mobiceal.Telemetry) float64 {
		return float64(t.Data.BytesRead + t.Data.BytesWrite + t.Meta.BytesRead + t.Meta.BytesWrite)
	}
	m.set("io_amp", ratio(devBytes(ph.after.tel)-devBytes(ph.before.tel), ph.ops*float64(s.w.reqBytes())))
	return ph, nil
}

// verify checks the run's outputs, all outside the timed windows, and
// counts every op of the run into res: the read-back after a reopen, the
// recycling workloads' own checks, and the workload's side replica.
func verify(o options, st *stack, res *result) error {
	if st.w.cycles() {
		st.topUp(readBackBlocks / len(st.clients))
		st.noteFill()
		if st.rec.err != nil {
			res.problem("%v", st.rec.err)
		}
		if err := st.allocTrend(); err != nil {
			res.problem("%v", err)
		}
	}
	if err := st.reopen(); err != nil {
		return err
	}
	va, vf, verr := st.verifySample(readBackBlocks)
	if vf > 0 {
		res.problem("reopen read-back: %d of %d blocks wrong, first: %v", vf, va, verr)
	}
	res.Attempted, res.Failed = va, vf
	for _, c := range st.clients {
		res.Attempted += c.ops
		res.Failed += c.failed
		if c.firstErr != nil {
			res.problem("%d ops failed, first: %v", c.failed, c.firstErr)
		}
	}
	sa, sf, err := sideChecks(o)
	if err != nil {
		res.problem("%v", err)
	}
	res.Attempted += sa
	res.Failed += sf
	return nil
}

// counterMetrics fills in the per-layer counts that come from the always-on
// counters, as deltas over the timed phase.
func (ph *phase) counterMetrics(m metrics) {
	pl := m.set
	d := func(a, b uint64) float64 { return float64(a - b) }
	before, after, bt, at := ph.before, ph.after, ph.before.tel, ph.after.tel
	var syscalls, bounces float64
	if at.File != nil {
		syscalls = d(at.File.PreadvCalls, bt.File.PreadvCalls) + d(at.File.PwritevCalls, bt.File.PwritevCalls)
		bounces = d(at.File.BounceCopies, bt.File.BounceCopies)
	}
	pl("storage.syscalls_per_op", syscalls/ph.ops)
	pl("storage.bounce_per_op", bounces/ph.ops)
	pl("thinp.provisions_per_op", d(at.Pool.Provisions, bt.Pool.Provisions)/ph.ops)
	pl("thinp.alloc_us", meanDeltaUS(at.Pool.AllocLat, bt.Pool.AllocLat))
	var steals uint64
	var lockAfter, lockBefore obs.HistSnapshot
	for i, sh := range at.Pool.Shards {
		was := bt.Pool.Shards[i]
		steals += sh.Steals - was.Steals
		lockAfter.Count, lockAfter.SumNS = lockAfter.Count+sh.LockLat.Count, lockAfter.SumNS+sh.LockLat.SumNS
		lockBefore.Count, lockBefore.SumNS = lockBefore.Count+was.LockLat.Count, lockBefore.SumNS+was.LockLat.SumNS
	}
	pl("thinp.shard_steals_per_op", float64(steals)/ph.ops)
	pl("thinp.shard_lock_wait_us", meanDeltaUS(lockAfter, lockBefore))
	flips := d(at.Pool.CommitFlips, bt.Pool.CommitFlips)
	pl("thinp.meta_blocks_per_commit", ratio(d(at.Meta.WriteBlocks, bt.Meta.WriteBlocks), flips))
	pl("thinp.commit_fold_ratio", ratio(d(at.Pool.CommitCalls, bt.Pool.CommitCalls), flips))
	pl("ioq.queue_wait_us", meanDeltaUS(at.IO.QueueLat, bt.IO.QueueLat))
	pl("ioq.service_us", meanDeltaUS(at.IO.ServiceLat, bt.IO.ServiceLat))
	completed := d(at.IO.Completed, bt.IO.Completed)
	pl("ioq.merge_ratio", ratio(d(at.IO.CoalescedReqs, bt.IO.CoalescedReqs), completed))
	pl("ioq.reqs_per_batch", ratio(completed, d(at.IO.Batches, bt.IO.Batches)))
	pl("ioq.retries_per_op", d(at.IO.Retries, bt.IO.Retries)/ph.ops)
	// The dummy-write ratios cover the system's whole life (the policy's
	// counters start at Setup), so the prefill's dummy writes — the ones
	// space_amp shows — count on the read and overwrite workloads too.
	pl("core.dummy_fire_ratio", ratio(float64(after.fires), float64(after.decisions)))
	pl("core.dummy_blocks_per_user_block", ratio(float64(after.dummyBlocks), float64(at.Pool.Provisions)-float64(after.dummyBlocks)))
	pl("core.recycle_ms", ratio(ms(after.rec.dur-before.rec.dur), float64(after.rec.n-before.rec.n)))
	pl("core.gc_reclaim_ratio", ratio(d(after.rec.reclaimed, before.rec.reclaimed), d(after.rec.scanned, before.rec.scanned)))
	pl("core.cpu_us_per_op", us(after.cpu-before.cpu)/ph.ops)
	pl("core.go_allocs_per_op", d(after.mallocs, before.mallocs)/ph.ops)
	pl("core.go_alloc_bytes_per_op", d(after.mallocB, before.mallocB)/ph.ops)
	pl("core.lat_p999_us", float64(ph.all[len(ph.all)*999/1000])/1e3)
	pl("core.lat_max_us", float64(ph.all[len(ph.all)-1])/1e3)
}
