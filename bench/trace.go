package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mobiceal/internal/core"
	"mobiceal/internal/storage"
)

// The traced run issues one serial op stream at each stack cut and times
// the calls into that layer's public functions from out here; nothing
// inside the program is instrumented.
const (
	cutNone  = iota // between ops (recycle, set-up): backend calls are not recorded
	cutRaw          // bare backend, the request's bytes as one contiguous call
	cutThinp        // sys.Pool().Thin(1)
	cutDM           // vol.Device(), the dm-crypt view
	cutIOQ          // vol.Submit*/Flush: the full stack
)

// traceChunk is how many ops a stack cut issues before the next cut takes
// its turn.
const traceChunk = 128

var cutNames = [...]string{"", "raw", "thinp", "dm", "ioq"}

const (
	spanOp = iota
	spanRead
	spanWrite
	spanSync
)

var spanNames = [...]string{"op", "read", "write", "sync"}

// span is one timed interval: an op at a cut, or one backend call an op
// caused. parent is the index+1 of the enclosing op's span, 0 for ops.
type span struct {
	parent     int32
	op         int32
	cut, kind  uint8
	metaRegion bool
	blocks     int32
	start, end time.Duration // since the tracer's base
}

// tracer collects spans in memory; they are written out when the run ends.
// The run is serial, so the op in progress is the cause of every backend
// call made meanwhile (the scheduler's workers make them on its behalf).
type tracer struct {
	base  time.Time
	cur   atomic.Int32 // index+1 of the op span in progress, 0 between ops
	mu    sync.Mutex
	spans []span
}

// begin opens an op span; end closes it with the op's own latency.
func (t *tracer) begin(op, cut int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{op: int32(op), cut: uint8(cut), kind: spanOp})
	t.cur.Store(int32(len(t.spans)))
	t.mu.Unlock()
}

func (t *tracer) end(lat time.Duration) {
	now := time.Since(t.base)
	t.mu.Lock()
	s := &t.spans[t.cur.Load()-1]
	s.start, s.end = now-lat, now
	t.cur.Store(0)
	t.mu.Unlock()
}

// shim is the bench-owned timing wrapper handed to Setup in place of the
// backend. It offers the method set both real backends offer — per-block,
// range and vectored transfers — so no layer above falls off its fast
// path, and records one span per call an op in progress makes. Between
// traced ops (set-up, recycle, the untraced comparison run) it passes calls
// straight through, untimed.
type shim struct {
	inner      storage.VecDevice
	rng        storage.RangeDevice
	metaBlocks uint64 // blocks below this are the pool-metadata region
	tr         *tracer
}

// fileShim adds the syscall accounting a FileDevice reports, so
// Telemetry().File stays present on direct workloads.
type fileShim struct {
	*shim
	storage.SyscallReporter
}

func newShim(dev storage.Device, metaBlocks uint64, tr *tracer) storage.Device {
	s := &shim{inner: dev.(storage.VecDevice), rng: dev.(storage.RangeDevice), metaBlocks: metaBlocks, tr: tr}
	if rep, ok := dev.(storage.SyscallReporter); ok {
		return fileShim{s, rep}
	}
	return s
}

// timed reports whether a traced op is in progress, and when the call began.
func (s *shim) timed() (bool, time.Time) {
	if s.tr.cur.Load() == 0 {
		return false, time.Time{}
	}
	return true, time.Now()
}

func (s *shim) record(kind uint8, idx uint64, blocks int, t0 time.Time) {
	end := time.Since(s.tr.base)
	t := s.tr
	t.mu.Lock()
	cur := t.cur.Load()
	op := &t.spans[cur-1]
	t.spans = append(t.spans, span{
		parent: cur, op: op.op, cut: op.cut, kind: kind,
		metaRegion: kind != spanSync && idx < s.metaBlocks, blocks: int32(blocks),
		start: t0.Sub(t.base), end: end,
	})
	t.mu.Unlock()
}

func (s *shim) BlockSize() int    { return s.inner.BlockSize() }
func (s *shim) NumBlocks() uint64 { return s.inner.NumBlocks() }
func (s *shim) Close() error      { return s.inner.Close() }

func (s *shim) ReadBlock(idx uint64, dst []byte) error {
	on, t0 := s.timed()
	err := s.inner.ReadBlock(idx, dst)
	if on {
		s.record(spanRead, idx, 1, t0)
	}
	return err
}

func (s *shim) WriteBlock(idx uint64, src []byte) error {
	on, t0 := s.timed()
	err := s.inner.WriteBlock(idx, src)
	if on {
		s.record(spanWrite, idx, 1, t0)
	}
	return err
}

func (s *shim) ReadBlocks(start uint64, dst []byte) error {
	on, t0 := s.timed()
	err := s.rng.ReadBlocks(start, dst)
	if on {
		s.record(spanRead, start, len(dst)/blockSize, t0)
	}
	return err
}

func (s *shim) WriteBlocks(start uint64, src []byte) error {
	on, t0 := s.timed()
	err := s.rng.WriteBlocks(start, src)
	if on {
		s.record(spanWrite, start, len(src)/blockSize, t0)
	}
	return err
}

func (s *shim) ReadBlocksVec(start uint64, v storage.BlockVec) error {
	on, t0 := s.timed()
	err := s.inner.ReadBlocksVec(start, v)
	if on {
		s.record(spanRead, start, v.Len(), t0)
	}
	return err
}

func (s *shim) WriteBlocksVec(start uint64, v storage.BlockVec) error {
	on, t0 := s.timed()
	err := s.inner.WriteBlocksVec(start, v)
	if on {
		s.record(spanWrite, start, v.Len(), t0)
	}
	return err
}

func (s *shim) Sync() error {
	on, t0 := s.timed()
	err := s.inner.Sync()
	if on {
		s.record(spanSync, 0, 0, t0)
	}
	return err
}

// tracedClient is the single client of a traced cut. Every cut gets its
// own, seeded alike, so every cut sees the same op stream.
func tracedClient(w *workload, seed uint64) *client {
	c := newClient(w, seed, 0, 0, w.setBlocks)
	if !w.cycles() {
		for i := range c.gen {
			c.gen[i] = 1 // as prefilled
		}
	}
	return c
}

// traceRun measures the per-layer time shares of o's workload and adds
// them to res. be is the backend the timed run used, its system closed: a
// direct image is reused (prefilling another costs seconds), a MemDevice
// is not.
func traceRun(o options, be *backend, res *result) error {
	w := o.w
	n, warm := w.tracedOps, 256
	if o.short {
		n, warm = 256, 32
	}
	lay, err := core.Layout(be.dev)
	if err != nil {
		return err
	}
	device := func() (storage.Device, error) {
		if w.direct {
			return be.dev, nil
		}
		mem, err := newBackend(w, o.dir)
		if err != nil {
			return nil, err
		}
		return mem.dev, nil // a MemDevice holds nothing to release
	}
	tr := &tracer{base: time.Now(), spans: make([]span, 0, (n+warm)*64)}
	count := func(c *client, what string) {
		res.Attempted += c.ops
		res.Failed += c.failed
		if c.firstErr != nil {
			res.problem("traced run, %s cut: %d ops failed, first: %v", what, c.failed, c.firstErr)
		}
	}

	// Raw: what the backend charges for the request's bytes in one call.
	rawDev, err := device()
	if err != nil {
		return err
	}
	raw := devTarget{dev: rawDev, offset: lay.MetaBlocks}
	var rawT time.Duration
	c := tracedClient(w, o.seed)
	for i := 0; i < warm+n; i++ {
		if c.full() {
			c.newCycle()
		}
		tr.begin(i, cutRaw)
		lat, _ := c.step(raw, false)
		tr.end(lat)
		if i >= warm {
			rawT += lat
		}
	}
	count(c, "raw")

	// The three stack cuts and the full stack untraced take turns in
	// rotating order, traceChunk ops at a time: back to back within a turn,
	// as a one-client closed loop is, yet close enough in time that drift
	// in the host hits all four alike. A workload that provisions needs one
	// freshly set-up system per participant; one that only reads or
	// overwrites mapped blocks leaves the mapping as it found it, so its
	// participants share one system.
	type participant struct {
		cut           int // cutNone: the full stack with the shim passing through
		st            *stack
		tgt           target
		c             *client
		total, commit time.Duration // over the timed ops
	}
	parts := []*participant{{cut: cutThinp}, {cut: cutDM}, {cut: cutIOQ}, {cut: cutNone}}
	owns := func(k int) bool { return k == 0 || w.cycles() }
	defer func() {
		for k, p := range parts {
			if p.st != nil && owns(k) {
				_ = p.st.sys.Close() // thrown away with its device
			}
		}
	}()
	for k, p := range parts {
		p.st = parts[0].st
		if owns(k) {
			dev, err := device()
			if err != nil {
				return err
			}
			if p.st, err = newStack(w, o.seed, newShim(dev, lay.MetaBlocks, tr), 1); err != nil {
				return fmt.Errorf("traced run set-up: %w", err)
			}
		}
		p.c = tracedClient(w, o.seed)
		switch p.cut {
		case cutThinp:
			thin, err := p.st.sys.Pool().Thin(core.PublicVolumeID)
			if err != nil {
				return err
			}
			p.tgt = devTarget{dev: thin}
		case cutDM:
			p.tgt = devTarget{dev: p.st.vol.Device()}
		default:
			p.tgt = volTarget{p.st.vol}
		}
	}
	for base := 0; base < warm+n; base += traceChunk {
		for j := range parts {
			p := parts[(base/traceChunk+j)%len(parts)]
			for i := base; i < min(base+traceChunk, warm+n); i++ {
				if p.c.full() {
					p.st.recycle()
					p.c.newCycle()
				}
				if p.cut != cutNone {
					tr.begin(i, p.cut)
				}
				// Below dm-crypt the bytes are ciphertext: nothing to check.
				lat, commitLat := p.c.step(p.tgt, p.cut != cutThinp)
				if p.cut != cutNone {
					tr.end(lat)
				}
				if i >= warm {
					p.total += lat
					p.commit += commitLat
				}
			}
		}
	}
	for k, p := range parts {
		what := cutNames[p.cut]
		if p.cut == cutNone {
			what = "untraced"
		}
		count(p.c, what)
		if owns(k) && p.st.rec.err != nil {
			res.problem("traced run, %s: %v", what, p.st.rec.err)
		}
	}

	// The backend calls the timed ops caused, per cut.
	var busy, syncBusy [len(cutNames)]time.Duration
	var calls, syncs, extents, blocks [len(cutNames)]float64
	for _, s := range tr.spans {
		if s.kind == spanOp || int(s.op) < warm {
			continue
		}
		busy[s.cut] += s.end - s.start
		if s.kind == spanSync {
			syncs[s.cut]++
			syncBusy[s.cut] += s.end - s.start
			continue
		}
		calls[s.cut]++
		blocks[s.cut] += float64(s.blocks)
		if !s.metaRegion {
			extents[s.cut]++
		}
	}

	// Self times. What a cut spends above the backend is its op time minus
	// the backend time of its own ops, so the backend's run-to-run noise
	// (large on a real disk) cancels before cuts are subtracted from each
	// other. With storage.busy_us taken at the full-stack cut the four
	// self times sum to core.serial_us exactly.
	ops := float64(n)
	perOp := func(d time.Duration) float64 { return us(d) / ops }
	above := func(k int) time.Duration { return parts[k].total - busy[parts[k].cut] }
	pl := res.Metrics.set
	pl("core.serial_us", perOp(parts[2].total))
	pl("storage.busy_us", perOp(busy[cutIOQ]))
	pl("storage.raw_us", perOp(rawT))
	pl("storage.calls_per_op", calls[cutIOQ]/ops)
	pl("storage.bytes_per_call", ratio(blocks[cutIOQ]*blockSize, calls[cutIOQ]))
	pl("storage.syncs_per_op", syncs[cutIOQ]/ops)
	pl("storage.sync_us", perOp(syncBusy[cutIOQ]))
	pl("thinp.extents_per_op", extents[cutIOQ]/ops)
	pl("thinp.self_us", perOp(above(0)))
	pl("thinp.commit_us", perOp(parts[0].commit))
	dmSelf := perOp(above(1) - above(0))
	pl("dm.self_us", dmSelf)
	pl("dm.mbps", max(ratio(float64(w.reqBytes()), dmSelf), 0))
	pl("ioq.self_us", perOp(above(2)-above(1)))
	pl("bench.trace_overhead_pct", 100*ratio(float64(parts[2].total-parts[3].total), float64(parts[3].total)))

	if o.traceOut != "" {
		return tr.writeJSONL(o.traceOut)
	}
	return nil
}

// writeJSONL dumps every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		line := map[string]any{
			"id": i + 1, "parent": s.parent, "op": s.op, "cut": cutNames[s.cut], "name": spanNames[s.kind],
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(),
		}
		if s.kind == spanRead || s.kind == spanWrite {
			line["blocks"] = s.blocks
			line["region"] = "data"
			if s.metaRegion {
				line["region"] = "meta"
			}
		}
		if err := enc.Encode(line); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
