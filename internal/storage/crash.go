package storage

import (
	"errors"
	"fmt"
	"sync"

	"mobiceal/internal/prng"
)

// ErrPowerCut reports I/O against a CrashDevice after a simulated power loss
// and before Restart.
var ErrPowerCut = errors.New("storage: simulated power cut")

// logEntry records one block write that reached stable storage, with the
// block's previous stable content, so the device can be reconstructed as of
// any point in the persisted write stream.
type logEntry struct {
	idx  uint64
	prev []byte
	data []byte
}

// CrashDevice wraps a Device with the volatile write-back cache semantics of
// real storage hardware, for crash-consistency testing.
//
// Writes land in a volatile cache and reach the inner device only at Sync
// (the FLUSH/FUA analogue), in the order blocks first entered the cache. A
// simulated power cut can persist an arbitrary subset of the in-flight
// blocks — including torn half-written blocks — and drop the rest, which is
// exactly the failure mode a crash-safe commit protocol must survive.
//
// For exhaustive testing, CrashDevice also records every persisted block
// write (with its pre-image) while recording is enabled. CrashImage then
// reconstructs the stable state as of any index in that write stream, so a
// test can replay a workload crashing at every single device write.
//
// CrashDevice is safe for concurrent use.
type CrashDevice struct {
	inner Device

	mu        sync.Mutex
	cache     map[uint64][]byte // volatile dirty blocks
	order     []uint64          // FIFO order in which blocks first became dirty
	log       []logEntry
	recording bool
	down      bool
}

// NewCrashDevice wraps inner. Recording starts disabled; call StartRecording
// once the workload of interest begins (typically after formatting).
func NewCrashDevice(inner Device) *CrashDevice {
	return &CrashDevice{inner: inner, cache: make(map[uint64][]byte)}
}

// BlockSize implements Device.
func (d *CrashDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements Device.
func (d *CrashDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadBlock implements Device.
func (d *CrashDevice) ReadBlock(idx uint64, dst []byte) error { return DoBlock(d, OpRead, idx, dst) }

// WriteBlock implements Device.
func (d *CrashDevice) WriteBlock(idx uint64, src []byte) error { return DoBlock(d, OpWrite, idx, src) }

// Sync implements Device.
func (d *CrashDevice) Sync() error { return Sync(d) }

// Do implements Doer under one lock hold for the whole call. Reads observe
// the cache (a drive returns its own buffered writes) and fall through to
// stable storage. Writes are buffered, not durable, until the next sync:
// every block of every segment enters the volatile cache in request and
// vec order, so the FIFO flush order, the power-cut in-flight set and the
// recorded write log see the per-block stream whatever the segmentation. A
// sync is the barrier a commit protocol orders its writes around: every
// in-flight block reaches stable storage, in the order blocks first became
// dirty, and the inner device is synced. Discards are dropped.
func (d *CrashDevice) Do(reqs []Req) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Each(reqs, func(one []Req) error {
		r := &one[0]
		if d.down {
			return ErrPowerCut
		}
		switch r.Op {
		case OpDiscard:
			return nil
		case OpSync:
			if err := d.flushLocked(); err != nil {
				return err
			}
			return Do(d.inner, one)
		}
		bs := d.inner.BlockSize()
		if err := checkVecIO(r.Start, r.Vec, bs, d.inner.NumBlocks()); err != nil {
			return err
		}
		return r.Vec.Range(func(off int, seg []byte) error {
			if r.Op == OpRead {
				return d.readSpanLocked(r.FID, r.Start+uint64(off), seg)
			}
			for i := 0; i*bs < len(seg); i++ {
				d.bufferLocked(r.Start+uint64(off+i), seg[i*bs:(i+1)*bs])
			}
			return nil
		})
	})
}

// readSpanLocked fills dst — a whole number of blocks at start — from the
// volatile cache and stable storage. Blocks absent from the cache are read
// in maximal contiguous runs with one inner range call per run instead of
// one call per block, which is what keeps the crash-enumeration harnesses'
// full-device scans cheap. The runs are requests of the cache's own, so
// they carry the caller's flight id down. Caller holds d.mu and has
// validated the request.
func (d *CrashDevice) readSpanLocked(fid, start uint64, dst []byte) error {
	bs := d.inner.BlockSize()
	n := len(dst) / bs
	for i := 0; i < n; {
		if b, ok := d.cache[start+uint64(i)]; ok {
			copy(dst[i*bs:(i+1)*bs], b)
			i++
			continue
		}
		j := i + 1
		for j < n {
			if _, ok := d.cache[start+uint64(j)]; ok {
				break
			}
			j++
		}
		run := Req{Op: OpRead, Start: start + uint64(i), Vec: VecOne(bs, dst[i*bs:j*bs]), FID: fid}
		if err := do1(d.inner, run); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// bufferLocked stores src as block idx in the volatile cache. Caller holds
// d.mu and has validated the request.
func (d *CrashDevice) bufferLocked(idx uint64, src []byte) {
	b, ok := d.cache[idx]
	if !ok {
		b = make([]byte, len(src))
		d.cache[idx] = b
		d.order = append(d.order, idx)
	}
	copy(b, src)
}

// flushLocked writes the volatile cache to the inner device, logging each
// persisted write when recording. On a mid-flush error the already-flushed
// prefix is trimmed from the pending order, so a retry resumes exactly at
// the failed block; writes are logged only after the inner device accepts
// them, so the log never claims a write that failed. Caller holds d.mu.
func (d *CrashDevice) flushLocked() error {
	for i, idx := range d.order {
		data := d.cache[idx]
		var prev []byte
		if d.recording {
			prev = make([]byte, d.inner.BlockSize())
			if err := d.inner.ReadBlock(idx, prev); err != nil {
				d.order = d.order[i:]
				return fmt.Errorf("storage: crash log pre-image of block %d: %w", idx, err)
			}
		}
		if err := d.inner.WriteBlock(idx, data); err != nil {
			d.order = d.order[i:]
			return err
		}
		if d.recording {
			cp := make([]byte, len(data))
			copy(cp, data)
			d.log = append(d.log, logEntry{idx: idx, prev: prev, data: cp})
		}
		delete(d.cache, idx)
	}
	d.order = d.order[:0]
	return nil
}

// Close implements Device. In-flight writes are flushed first (an orderly
// shutdown is not a power cut) unless the device is already down.
func (d *CrashDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.down {
		if err := d.flushLocked(); err != nil {
			return err
		}
	}
	return d.inner.Close()
}

// StartRecording flushes any in-flight writes, clears the persisted-write
// log and begins recording. Call it at the point of the workload where crash
// enumeration should start (CrashImage(0) reproduces this state).
func (d *CrashDevice) StartRecording() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return ErrPowerCut
	}
	if err := d.flushLocked(); err != nil {
		return err
	}
	if err := d.inner.Sync(); err != nil {
		return err
	}
	d.log = nil
	d.recording = true
	return nil
}

// PersistedWrites returns how many block writes reached stable storage since
// StartRecording. Valid crash indexes for CrashImage are [0, PersistedWrites].
func (d *CrashDevice) PersistedWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.log)
}

// InFlight returns how many dirty blocks sit in the volatile cache.
func (d *CrashDevice) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cache)
}

// CrashImage returns an independent writable view of the stable state after
// exactly the first n persisted writes — the device a machine would boot
// from had power failed at that point. Views are copy-on-write: writes to a
// view never reach the live device or sibling views. Reads of blocks the
// recorded stream never touched fall through to the inner device, so views
// are faithful only once the workload has quiesced (no flushes after the
// view is taken); take them when the recorded workload is finished, as the
// enumeration harnesses do.
func (d *CrashDevice) CrashImage(n int) (Device, error) {
	return d.crashImage(n, -1)
}

// CrashImageTorn is CrashImage with persisted write n torn mid-block: its
// first tornBytes bytes are the new data, the rest is the previous content —
// the half-programmed page a power cut leaves on real flash.
func (d *CrashDevice) CrashImageTorn(n, tornBytes int) (Device, error) {
	if tornBytes < 0 || tornBytes > d.inner.BlockSize() {
		return nil, fmt.Errorf("storage: torn byte count %d of block size %d", tornBytes, d.inner.BlockSize())
	}
	return d.crashImage(n, tornBytes)
}

func (d *CrashDevice) crashImage(n, tornBytes int) (Device, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > len(d.log) || (tornBytes >= 0 && n == len(d.log)) {
		return nil, fmt.Errorf("storage: crash index %d of %d persisted writes", n, len(d.log))
	}
	blocks := make(map[uint64][]byte)
	// Blocks written within the prefix hold the last value the prefix gave
	// them; blocks first written after the crash point hold their pre-image.
	for _, e := range d.log[:n] {
		blocks[e.idx] = append([]byte(nil), e.data...)
	}
	for _, e := range d.log[n:] {
		if _, ok := blocks[e.idx]; !ok {
			blocks[e.idx] = append([]byte(nil), e.prev...)
		}
	}
	if tornBytes >= 0 {
		e := d.log[n]
		torn := append([]byte(nil), e.data[:tornBytes]...)
		torn = append(torn, e.prev[tornBytes:]...)
		blocks[e.idx] = torn
	}
	return &overlayDevice{
		inner:     d.inner,
		blockSize: d.inner.BlockSize(),
		numBlocks: d.inner.NumBlocks(),
		blocks:    blocks,
	}, nil
}

// PowerCut simulates losing power with writes in flight: each in-flight
// block independently persists in full, persists torn at a random byte
// boundary, or is dropped. The cache is discarded and the device refuses
// further I/O with ErrPowerCut until Restart. The persisted subset is logged
// like a flush, so recording harnesses stay coherent.
func (d *CrashDevice) PowerCut(src *prng.Source) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return ErrPowerCut
	}
	bs := d.inner.BlockSize()
	for _, idx := range d.order {
		data := d.cache[idx]
		var landed []byte
		switch src.Uint64n(3) {
		case 0: // dropped
			continue
		case 1: // persisted in full
			landed = append([]byte(nil), data...)
		default: // torn
			prev := make([]byte, bs)
			if err := d.inner.ReadBlock(idx, prev); err != nil {
				return fmt.Errorf("storage: power cut pre-image of block %d: %w", idx, err)
			}
			t := int(src.Uint64n(uint64(bs + 1)))
			landed = append([]byte(nil), data[:t]...)
			landed = append(landed, prev[t:]...)
		}
		if d.recording {
			prev := make([]byte, bs)
			if err := d.inner.ReadBlock(idx, prev); err != nil {
				return fmt.Errorf("storage: power cut pre-image of block %d: %w", idx, err)
			}
			d.log = append(d.log, logEntry{idx: idx, prev: prev, data: landed})
		}
		if err := d.inner.WriteBlock(idx, landed); err != nil {
			return err
		}
	}
	d.dropCacheLocked()
	d.down = true
	return nil
}

// PowerCutDropAll simulates the simplest power cut: every in-flight write is
// lost and the device goes down until Restart.
func (d *CrashDevice) PowerCutDropAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropCacheLocked()
	d.down = true
}

func (d *CrashDevice) dropCacheLocked() {
	d.cache = make(map[uint64][]byte)
	d.order = nil
}

// Restart brings the device back after a power cut: the next reads observe
// exactly what stable storage holds, like a fresh boot.
func (d *CrashDevice) Restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = false
}

// overlayDevice is a copy-on-write view over a base device: reads prefer the
// overlay, writes land only in the overlay. CrashImage hands these out so
// recovery code under test can freely mutate a crash state without
// disturbing the live device or sibling crash states.
type overlayDevice struct {
	inner     Device
	blockSize int
	numBlocks uint64

	mu     sync.Mutex
	blocks map[uint64][]byte
}

func (d *overlayDevice) BlockSize() int    { return d.blockSize }
func (d *overlayDevice) NumBlocks() uint64 { return d.numBlocks }

func (d *overlayDevice) ReadBlock(idx uint64, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := checkIO(idx, dst, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	if b, ok := d.blocks[idx]; ok {
		copy(dst, b)
		return nil
	}
	return d.inner.ReadBlock(idx, dst)
}

func (d *overlayDevice) WriteBlock(idx uint64, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := checkIO(idx, src, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	d.blocks[idx] = append([]byte(nil), src...)
	return nil
}

func (d *overlayDevice) Sync() error  { return nil }
func (d *overlayDevice) Close() error { return nil }
