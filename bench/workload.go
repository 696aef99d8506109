package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"mobiceal"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// Geometry common to every workload (ISSUE 11 "common load shape").
const (
	blockSize  = 4096
	devBlocks  = 65536 // 256 MiB backend
	numClients = 2     // closed loop, one outstanding request per client

	decoyPassword  = "bench-decoy"
	hiddenPassword = "bench-hidden"
)

type opKind int

const (
	opRead      opKind = iota // random read of the prefilled set
	opOverwrite               // random write to already-mapped blocks
	opFresh                   // first write into unmapped space, recycle when full
	opCommit                  // first write + Flush per op, recycle when full
)

// workload is one named row of the ledger.
type workload struct {
	name      string
	why       string
	direct    bool // O_DIRECT FileDevice instead of MemDevice
	kind      opKind
	reqBlocks int    // blocks per request
	setBlocks uint64 // working set, split evenly between the clients
	tracedOps int    // ops per stack cut in the traced run
}

// cycles reports whether the workload provisions fresh space and so must
// recycle (discard + GC + FlushAll) whenever the working set fills.
func (w *workload) cycles() bool { return w.kind == opFresh || w.kind == opCommit }

func (w *workload) reqBytes() int { return w.reqBlocks * blockSize }

var workloads = []workload{
	{name: "mem_read_4k", kind: opRead, reqBlocks: 1, setBlocks: 16384, tracedOps: 4096,
		why: "tiny random reads on RAM: per-request overhead (ioq hand-off, thinp lookup) is most of the op, crypt gains show little"},
	{name: "mem_read_32k", kind: opRead, reqBlocks: 8, setBlocks: 16384, tracedOps: 4096,
		why: "32 KiB random reads on RAM: the device is a memcpy so dm XTS decrypt dominates; below-thin batching must show nothing"},
	{name: "mem_overwrite_32k", kind: opOverwrite, reqBlocks: 8, setBlocks: 16384, tracedOps: 4096,
		why: "write twin of mem_read_32k (encrypt, mapped-write path, no provisioning): a read gain that costs writes shows here"},
	{name: "mem_fresh_32k", kind: opFresh, reqBlocks: 8, setBlocks: 16384, tracedOps: 4096,
		why: "first writes into unmapped space with recycle: provisioning, random allocator, dummy-write bursts, discard and GC"},
	{name: "mem_commit_4k", kind: opCommit, reqBlocks: 1, setBlocks: 4096, tracedOps: 4096,
		why: "4 KiB first write + Flush per op (SQLite-style): fold, metadata write, A/B flip, ioq barrier; crypt is negligible"},
	{name: "direct_read_32k", direct: true, kind: opRead, reqBlocks: 8, setBlocks: 16384, tracedOps: 2048,
		why: "32 KiB random reads on an O_DIRECT image: random allocation turns one request into serial single-block preadvs"},
	{name: "direct_overwrite_32k", direct: true, kind: opOverwrite, reqBlocks: 8, setBlocks: 16384, tracedOps: 2048,
		why: "write twin on real storage (pwritev, ext4 inode lock): read-side batching that hurts writes shows here"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// blockTag is the 64-bit tag of (seed, block, generation) every word of a
// pattern block derives from (splitmix64 finaliser over the three).
func blockTag(seed, block uint64, gen uint32) uint64 {
	z := seed*0x9E3779B97F4A7C15 + block*0xBF58476D1CE4E5B9 + uint64(gen)*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const wordStride = 0x9E3779B97F4A7C15

// fillBlock writes the pattern of tag into b (one block).
func fillBlock(b []byte, tag uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], tag^(uint64(i)*wordStride))
	}
}

// checkBlock reports whether b carries the pattern of tag: the first and
// last word always, every word when full is set.
func checkBlock(b []byte, tag uint64, full bool) bool {
	last := len(b) - 8
	if binary.LittleEndian.Uint64(b) != tag ||
		binary.LittleEndian.Uint64(b[last:]) != tag^(uint64(last)*wordStride) {
		return false
	}
	if full {
		for i := 8; i < last; i += 8 {
			if binary.LittleEndian.Uint64(b[i:]) != tag^(uint64(i)*wordStride) {
				return false
			}
		}
	}
	return true
}

// target is one stack cut the op stream can be issued at.
type target interface {
	read(start uint64, dst []byte) error
	write(start uint64, src []byte) error
	commit() error
}

// volTarget is the full stack: the public async path, one request
// outstanding.
type volTarget struct{ vol *mobiceal.Volume }

func (t volTarget) read(start uint64, dst []byte) error  { return t.vol.SubmitRead(start, dst).Wait() }
func (t volTarget) write(start uint64, src []byte) error { return t.vol.SubmitWrite(start, src).Wait() }
func (t volTarget) commit() error                        { return t.vol.Flush().Wait() }

// devTarget issues synchronous calls into a layer's device: the bare
// backend (offset into the data region), a thin, or the dm-crypt view.
type devTarget struct {
	dev    storage.Device
	offset uint64
}

func (t devTarget) read(start uint64, dst []byte) error {
	return storage.ReadBlocks(t.dev, t.offset+start, dst)
}
func (t devTarget) write(start uint64, src []byte) error {
	return storage.WriteBlocks(t.dev, t.offset+start, src)
}
func (t devTarget) commit() error { return t.dev.Sync() }

// client is one closed-loop load generator. It owns blocks [base, base+n)
// of the working set and the generation of every block in it, so clients
// share no state. Offsets are request-aligned draws from the client's own
// PRNG; cycle workloads instead walk a shuffled order of the request slots
// and report when the slice is full.
type client struct {
	w    *workload
	seed uint64
	rng  *prng.Source
	base uint64
	gen  []uint32 // generation last written per owned block; 0 = unmapped
	buf  []byte

	order []uint32 // cycle workloads: shuffled request slots
	pos   int
	cycle uint32

	ops, failed uint64
	firstErr    error
}

func newClient(w *workload, seed uint64, id int, base, n uint64) *client {
	c := &client{
		w:    w,
		seed: seed,
		rng:  prng.NewSource(seed*numClients + uint64(id) + 1),
		base: base,
		gen:  make([]uint32, n),
		buf:  mobiceal.AlignedBuf(w.reqBytes()),
	}
	if w.cycles() {
		c.order = make([]uint32, n/uint64(w.reqBlocks))
		for i := range c.order {
			c.order[i] = uint32(i)
		}
		c.newCycle()
	}
	return c
}

// newCycle starts the next fill of the client's slice in a fresh order.
func (c *client) newCycle() {
	c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	c.pos = 0
	c.cycle++
}

// full reports whether a cycle workload has written its whole slice.
func (c *client) full() bool { return c.order != nil && c.pos == len(c.order) }

func (c *client) slots() uint64 { return uint64(len(c.gen) / c.w.reqBlocks) }

// fail counts one failed op, keeping the first cause for the report.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// step issues the client's next op at t and returns its latency (submit →
// completion; write+commit is one op) and the commit's share of it.
// Pattern generation and checking happen outside the timed span. verify
// is off at cuts below dm-crypt, where the bytes are ciphertext.
func (c *client) step(t target, verify bool) (lat, commitLat time.Duration) {
	var slot uint64
	if c.order != nil {
		slot = uint64(c.order[c.pos])
		c.pos++
	} else {
		slot = c.rng.Uint64n(c.slots())
	}
	rel := slot * uint64(c.w.reqBlocks)
	start := c.base + rel
	gens := c.gen[rel : rel+uint64(c.w.reqBlocks)]
	c.ops++

	if c.w.kind == opRead {
		t0 := time.Now()
		err := t.read(start, c.buf)
		lat = time.Since(t0)
		switch {
		case err != nil:
			c.fail(err)
		case verify:
			full := c.ops%64 == 0
			for i, g := range gens {
				if !checkBlock(c.buf[i*blockSize:(i+1)*blockSize], blockTag(c.seed, start+uint64(i), g), full) {
					c.fail(fmt.Errorf("read of block %d: pattern mismatch (generation %d)", start+uint64(i), g))
					break
				}
			}
		}
		return lat, 0
	}

	for i := range gens {
		if c.order != nil {
			gens[i] = c.cycle
		} else {
			gens[i]++
		}
		fillBlock(c.buf[i*blockSize:(i+1)*blockSize], blockTag(c.seed, start+uint64(i), gens[i]))
	}
	t0 := time.Now()
	err := t.write(start, c.buf)
	if err == nil && c.w.kind == opCommit {
		t1 := time.Now()
		err = t.commit()
		commitLat = time.Since(t1)
	}
	lat = time.Since(t0)
	if err != nil {
		c.fail(err)
	}
	return lat, commitLat
}
