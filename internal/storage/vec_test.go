package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mobiceal/internal/prng"
)

// randomVecOver carves buf into a random segmentation of whole blocks.
func randomVecOver(src *prng.Source, bs int, buf []byte) BlockVec {
	var segs [][]byte
	n := len(buf) / bs
	for off := 0; off < n; {
		seg := 1 + int(src.Uint64n(4))
		if seg > n-off {
			seg = n - off
		}
		segs = append(segs, buf[off*bs:(off+seg)*bs])
		off += seg
	}
	return Vec(bs, segs...)
}

// flatten gathers v's segments into one buffer.
func flatten(v BlockVec) []byte {
	var out []byte
	_ = v.Range(func(_ int, seg []byte) error {
		out = append(out, seg...)
		return nil
	})
	return out
}

func TestBlockVecHelpers(t *testing.T) {
	const bs = 16
	a := make([]byte, 2*bs)
	b := make([]byte, 3*bs)
	c := make([]byte, 1*bs)
	for i := range a {
		a[i] = 'a'
	}
	for i := range b {
		b[i] = 'b'
	}
	for i := range c {
		c[i] = 'c'
	}
	v := Vec(bs, a, b, c)
	if v.Len() != 6 || v.Bytes() != 6*bs || v.Segments() != 3 {
		t.Fatalf("Len=%d Bytes=%d Segments=%d", v.Len(), v.Bytes(), v.Segments())
	}
	want := append(append(append([]byte(nil), a...), b...), c...)
	if !bytes.Equal(flatten(v), want) {
		t.Fatal("vec content mismatch")
	}
	// Full-range slice reproduces the vec; zero-length slice is empty.
	if got := flatten(v.Slice(0, 6)); !bytes.Equal(got, want) {
		t.Fatal("full Slice mismatch")
	}
	if v.Slice(4, 0).Len() != 0 {
		t.Fatal("empty slice not empty")
	}
	// Slice shares memory with the source segments.
	sub := v.Slice(1, 3) // second block of a, first two of b
	if sub.Len() != 3 {
		t.Fatalf("sub.Len=%d", sub.Len())
	}
	sub.Seg(0)[0] = 'X'
	if a[bs] != 'X' {
		t.Fatal("Slice does not alias the source segment")
	}
	if !bytes.Equal(flatten(sub), append(append([]byte(nil), a[bs:]...), b[:2*bs]...)) {
		t.Fatal("Slice content mismatch")
	}
	// Range walks segments with correct block offsets.
	offs := []int{}
	_ = v.Range(func(off int, seg []byte) error {
		offs = append(offs, off, len(seg)/bs)
		return nil
	})
	wantOffs := []int{0, 2, 2, 3, 5, 1}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] {
			t.Fatalf("Range offsets %v, want %v", offs, wantOffs)
		}
	}
	// Malformed segments panic.
	for _, bad := range [][]byte{nil, make([]byte, bs-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Vec accepted segment of len %d", len(bad))
				}
			}()
			Vec(bs, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range Slice did not panic")
			}
		}()
		v.Slice(4, 3)
	}()
}

// TestVecFlatEquivalenceRandomized: a request over any random segmentation
// is the per-block loop — vec writes land exactly like the flattened write
// would, vec reads return exactly what a flat read does — on every device
// class and on the ladder's last rung.
func TestVecFlatEquivalenceRandomized(t *testing.T) {
	const bs = 512
	kinds := map[string]string{"mem": "mem", "mem-noise": "noise", "file": "file", "slice-of-mem": "slice",
		"stats": "stats", "fault-disarmed": "fault", "crash": "crash",
		"plain-fallback": "plain", "range-only-fallback": "rangeonly"}
	vec := func(op func(Device, uint64, BlockVec) error) func(*prng.Source, Device, uint64, []byte) error {
		return func(src *prng.Source, d Device, start uint64, buf []byte) error {
			return op(d, start, randomVecOver(src, bs, buf))
		}
	}
	// 257 blocks: off power-of-two to cross slab/dir boundaries unevenly.
	shapeMatchesBlockwise(t, kinds, bs, 257, 24, vec(WriteBlocksVec), vec(ReadBlocksVec))
}

// TestSnapshotVecRead asserts vec reads of a snapshot agree with flat
// reads, including unmaterialized background spans, and that snapshots
// reject vec writes.
func TestSnapshotVecRead(t *testing.T) {
	const bs, blocks = 256, 64
	src := prng.NewSource(99)
	d := NewMemDeviceBackground(bs, blocks, NewNoiseBackground(3))
	buf := make([]byte, 4*bs)
	for i := 0; i < 10; i++ {
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := WriteBlocks(d, src.Uint64n(blocks-4), buf); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	for r := 0; r < 50; r++ {
		start := src.Uint64n(blocks)
		n := 1 + src.Uint64n(blocks-start)
		got := make([]byte, int(n)*bs)
		if err := ReadBlocksVec(snap, start, randomVecOver(src, bs, got)); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(got))
		if err := ReadBlocks(snap, start, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: snapshot vec read mismatch", r)
		}
	}
	seg := make([]byte, bs)
	if err := WriteBlocksVec(snap, 0, Vec(bs, seg)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot vec write: %v, want ErrReadOnly", err)
	}
}

// TestVecGeometryErrors pins validation: mismatched vec block size,
// out-of-range vecs, and the zero-length no-op.
func TestVecGeometryErrors(t *testing.T) {
	const bs, blocks = 128, 16
	d := NewMemDevice(bs, blocks)
	seg := make([]byte, 2*bs)
	if err := WriteBlocksVec(d, blocks-1, Vec(bs, seg, seg)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow vec write: %v, want ErrOutOfRange", err)
	}
	if err := ReadBlocksVec(d, blocks, Vec(bs, seg, seg)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range vec read: %v, want ErrOutOfRange", err)
	}
	other := Vec(64, make([]byte, 64), make([]byte, 64))
	if err := WriteBlocksVec(d, 0, other); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size vec: %v, want ErrBadBuffer", err)
	}
	// The single-segment fast path must enforce the same rule: a
	// one-segment vec in the wrong block unit would silently transfer the
	// wrong extent if it degraded to the flat path unchecked.
	oneWrong := Vec(64, make([]byte, 2*bs))
	if err := WriteBlocksVec(d, 0, oneWrong); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size single-segment vec write: %v, want ErrBadBuffer", err)
	}
	if err := ReadBlocksVec(d, 0, oneWrong); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size single-segment vec read: %v, want ErrBadBuffer", err)
	}
	if err := ReadBlocksVec(plainDevice{d}, 0, oneWrong); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("wrong-block-size single-segment vec on plain device: %v, want ErrBadBuffer", err)
	}
	if err := WriteBlocksVec(d, blocks, Vec(bs)); err != nil {
		t.Fatalf("empty vec should be a no-op anywhere: %v", err)
	}
}

// TestFaultDeviceVecPartial exercises the block-granular fault budget
// across segment boundaries: a vec op that exhausts the budget completes
// exactly the covered prefix — ending mid-segment — and reports it via
// PartialError.
func TestFaultDeviceVecPartial(t *testing.T) {
	const bs, blocks = 128, 64
	src := prng.NewSource(4242)
	for budget := 0; budget <= 10; budget++ {
		mem := NewMemDevice(bs, blocks)
		fd := NewFlakyDevice(mem, FlakyOptions{})
		payload := make([]byte, 10*bs)
		if _, err := src.Read(payload); err != nil {
			t.Fatal(err)
		}
		// Segmentation 3+4+3 guarantees every budget in (0,10) cuts either
		// at or inside a segment.
		v := Vec(bs, payload[:3*bs], payload[3*bs:7*bs], payload[7*bs:])
		fd.FailAfter(OpWrite, budget, nil)
		err := WriteBlocksVec(fd, 2, v)
		if budget >= 10 {
			if err != nil {
				t.Fatalf("budget %d: unexpected error %v", budget, err)
			}
			continue
		}
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("budget %d: error %v, want PartialError", budget, err)
		}
		if pe.Done != budget {
			t.Fatalf("budget %d: Done=%d", budget, pe.Done)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("budget %d: PartialError must wrap ErrInjected", budget)
		}
		// Exactly the prefix landed.
		got := make([]byte, 10*bs)
		if err := ReadBlocks(mem, 2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:budget*bs], payload[:budget*bs]) {
			t.Fatalf("budget %d: prefix content mismatch", budget)
		}
		if writtenBlocks(mem) != budget {
			t.Fatalf("budget %d: %d blocks materialized", budget, writtenBlocks(mem))
		}

		// Same contract on the read side.
		fd2 := NewFlakyDevice(mem, FlakyOptions{})
		fd2.FailAfter(OpRead, budget, nil)
		rv := Vec(bs, make([]byte, 3*bs), make([]byte, 4*bs), make([]byte, 3*bs))
		rerr := ReadBlocksVec(fd2, 2, rv)
		if !errors.As(rerr, &pe) || pe.Done != budget {
			t.Fatalf("read budget %d: error %v", budget, rerr)
		}
	}
}

// TestVecSegmentErrorRebasing pins the per-block rung's PartialError
// accumulation: when a later segment of a multi-segment vec fails on a
// non-vec device, the blocks transferred by earlier segments count into
// Done.
func TestVecSegmentErrorRebasing(t *testing.T) {
	const bs, blocks = 128, 64
	mem := NewMemDevice(bs, blocks)
	fd := NewFlakyDevice(mem, FlakyOptions{})
	// Hide the vec capability: the ladder drives the FlakyDevice block by
	// block.
	dev := &rangeOnlyDevice{plainDevice{fd}}
	payload := make([]byte, 8*bs)
	v := Vec(bs, payload[:4*bs], payload[4*bs:])
	fd.FailAfter(OpWrite, 6, nil)
	err := WriteBlocksVec(dev, 0, v)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want PartialError", err)
	}
	// First segment's 4 blocks complete; second segment's budget dies
	// after 2: Done must be 6, counted across the boundary.
	if pe.Done != 6 {
		t.Fatalf("Done=%d, want 6", pe.Done)
	}

	// A failure on a later segment still becomes a PartialError carrying
	// the earlier segments' blocks, through two per-block rungs.
	mem2 := NewMemDevice(bs, blocks)
	fd2 := NewFlakyDevice(mem2, FlakyOptions{})
	dev2 := &rangeOnlyDevice{plainDevice{plainDevice{fd2}}}
	fd2.FailAfter(OpWrite, 2, nil)
	err = WriteBlocksVec(dev2, 0, Vec(bs, payload[:2*bs], payload[2*bs:6*bs]))
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want PartialError", err)
	}
	if pe.Done != 2 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Done=%d err=%v, want 2 wrapping ErrInjected", pe.Done, err)
	}

	// A vec that exceeds the device as a whole is rejected up front —
	// validation, not partial completion.
	small := NewMemDevice(bs, 4)
	err = WriteBlocksVec(&rangeOnlyDevice{plainDevice{small}}, 0,
		Vec(bs, payload[:2*bs], payload[2*bs:6*bs]))
	if errors.As(err, &pe) || !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflowing vec: %v, want plain ErrOutOfRange", err)
	}
	if writtenBlocks(small) != 0 {
		t.Fatal("rejected vec must have no partial effects")
	}
}

// TestCrashDeviceVecWriteOrder asserts vec writes enter the volatile cache
// in vec order, so the FIFO flush stream (and therefore crash-image
// enumeration) is identical to the flat path's.
func TestCrashDeviceVecWriteOrder(t *testing.T) {
	const bs, blocks = 128, 32
	mem := NewMemDevice(bs, blocks)
	cd := NewCrashDevice(mem)
	if err := cd.StartRecording(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 6*bs)
	for i := range payload {
		payload[i] = byte(i/bs) + 1 // nonzero: distinguishable from pre-image
	}
	v := Vec(bs, payload[:bs], payload[bs:4*bs], payload[4*bs:])
	if err := WriteBlocksVec(cd, 10, v); err != nil {
		t.Fatal(err)
	}
	if got := cd.InFlight(); got != 6 {
		t.Fatalf("InFlight=%d, want 6", got)
	}
	// Reads before the flush see the cache through the vec path too.
	rv := make([]byte, 6*bs)
	if err := ReadBlocksVec(cd, 10, Vec(bs, rv[:2*bs], rv[2*bs:])); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rv, payload) {
		t.Fatal("vec read of cached blocks mismatch")
	}
	if err := cd.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := cd.PersistedWrites(); got != 6 {
		t.Fatalf("PersistedWrites=%d, want 6", got)
	}
	// The write log must hold blocks 10..15 in ascending (vec) order:
	// crash images cut mid-vec recover a prefix in block order.
	for n := 0; n <= 6; n++ {
		img, err := cd.CrashImage(n)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, bs)
		for i := 0; i < 6; i++ {
			if err := img.ReadBlock(10+uint64(i), buf); err != nil {
				t.Fatal(err)
			}
			wantWritten := i < n
			isWritten := bytes.Equal(buf, payload[i*bs:(i+1)*bs])
			if isWritten != wantWritten {
				t.Fatalf("crash image %d: block %d written=%v, want %v", n, 10+i, isWritten, wantWritten)
			}
		}
	}
}

// TestVecFallbackLadderDispatch pins that a request counts the same
// whether it arrives as one segment or several.
func TestVecFallbackLadderDispatch(t *testing.T) {
	const bs, blocks = 128, 16
	mem := NewMemDevice(bs, blocks)
	sd := NewStatsDevice(mem)
	one := Vec(bs, make([]byte, 2*bs))
	if err := WriteBlocksVec(sd, 0, one); err != nil {
		t.Fatal(err)
	}
	if got := sd.Metrics().WriteBlocks.Load(); got != 2 {
		t.Fatalf("stats writes=%d, want 2", got)
	}
	multi := Vec(bs, make([]byte, bs), make([]byte, bs))
	if err := WriteBlocksVec(sd, 4, multi); err != nil {
		t.Fatal(err)
	}
	if got := sd.Metrics().WriteBlocks.Load(); got != 4 {
		t.Fatalf("stats writes=%d, want 4 (vec counted once per block)", got)
	}
	if fmt.Sprint(sd.Metrics().BytesWrite.Load()) != fmt.Sprint(4*bs) {
		t.Fatalf("bytes=%d", sd.Metrics().BytesWrite.Load())
	}
}
