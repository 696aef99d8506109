package storage_test

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"mobiceal/internal/dm"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

// The conformance suite: every device that takes request descriptors — and
// the two fallback rungs of storage.Do — is driven with the same table of
// request shapes and checked against one oracle, the per-block loop on a
// MemDevice. TestDoConformance runs the table; FuzzDo decodes arbitrary
// bytes into the table's own row format and holds them to the same oracle.

const (
	cbs     = 64 // block size
	cblocks = 48 // every device under test is exactly this long
)

var errLeaf = errors.New("conformance: leaf transfer failed")

// leaf is the recording bottom of a stack under test: a Doer over a
// MemDevice that notes the flight id of every request reaching it and
// fails the failAt'th transfer it is asked for. Its per-block methods are
// the MemDevice's own, unrecorded.
type leaf struct {
	*storage.MemDevice
	fids   []uint64
	failAt int // 1-based ordinal among reads and writes; 0 never
	seen   int
}

func (l *leaf) Do(reqs []storage.Req) error {
	return storage.Each(reqs, func(one []storage.Req) error {
		r := &one[0]
		l.fids = append(l.fids, r.FID)
		// Only a transfer the device would have served is failed: a
		// malformed one keeps the error the MemDevice gives it.
		n, v := l.NumBlocks(), r.Vec
		valid := v.Segments() == 0 || v.BlockSize() == cbs && r.Start < n && uint64(v.Len()) <= n-r.Start
		if (r.Op == storage.OpRead || r.Op == storage.OpWrite) && valid {
			if l.seen++; l.seen == l.failAt {
				return errLeaf
			}
		}
		return storage.Do(l.MemDevice, one)
	})
}

// plainDevice offers the six Device methods and nothing else: it lands on
// the ladder's per-block rung.
type plainDevice struct{ storage.Device }

// vecDevice offers Device and VecDevice and nothing else: it lands on the
// ladder's vec rung, as the bench module's timing shim does.
type vecDevice struct{ storage.VecDevice }

// layer is one device under test. build returns it reading back image,
// over a fresh leaf where the device stacks on one.
type layer struct {
	name  string
	build func(t testing.TB, image []byte) (storage.Device, *leaf)
	// oneToOne: request k of a call is transfer k at the leaf, so a leaf
	// failure can be aimed at a request.
	oneToOne bool
	// readOnly devices refuse every write; provisioning ones read zeros
	// after a discard; rangeChecksDiscard ones refuse a discard that
	// overruns them (the others pass the advisory request along).
	readOnly, provisioning, rangeChecksDiscard bool
}

// over builds a layer by wrapping a leaf of n blocks and writing the image
// through the device under test.
func over(n uint64, wrap func(t testing.TB, lf *leaf) storage.Device) func(testing.TB, []byte) (storage.Device, *leaf) {
	return func(t testing.TB, image []byte) (storage.Device, *leaf) {
		lf := &leaf{MemDevice: storage.NewMemDevice(cbs, n)}
		dut := wrap(t, lf)
		if err := storage.WriteBlocks(dut, 0, image); err != nil {
			t.Fatalf("priming the device: %v", err)
		}
		lf.fids, lf.seen = nil, 0
		return dut, lf
	}
}

// costOver builds a layer charging a Nexus 4 meter by rule.
func costOver(rule vclock.Rule) func(testing.TB, []byte) (storage.Device, *leaf) {
	return over(cblocks, func(_ testing.TB, lf *leaf) storage.Device {
		return vclock.NewCostDevice(lf, vclock.NewMeter(new(vclock.Clock), vclock.Nexus4()), rule)
	})
}

// bare builds a leafless layer: a view of a MemDevice holding the image.
func bare(view func(*storage.MemDevice) storage.Device) func(testing.TB, []byte) (storage.Device, *leaf) {
	return func(t testing.TB, image []byte) (storage.Device, *leaf) {
		mem := storage.NewMemDevice(cbs, cblocks)
		if err := storage.WriteBlocks(mem, 0, image); err != nil {
			t.Fatal(err)
		}
		return view(mem), nil
	}
}

func layers() []layer {
	key := bytes.Repeat([]byte{0x5c}, 64)
	return []layer{
		{name: "mem", build: bare(func(m *storage.MemDevice) storage.Device { return m })},
		{name: "vec-rung", build: bare(func(m *storage.MemDevice) storage.Device { return vecDevice{m} })},
		{name: "per-block-rung", build: bare(func(m *storage.MemDevice) storage.Device { return plainDevice{m} })},
		{name: "slice", oneToOne: true, rangeChecksDiscard: true, build: over(cblocks+5, func(t testing.TB, lf *leaf) storage.Device {
			d, err := storage.NewSliceDevice(lf, 3, cblocks)
			if err != nil {
				t.Fatal(err)
			}
			return d
		})},
		{name: "stats", oneToOne: true, build: over(cblocks, func(_ testing.TB, lf *leaf) storage.Device { return storage.NewStatsDevice(lf) })},
		// The fault budget armed but never spent: every block op takes the
		// budget path and passes.
		{name: "fault", oneToOne: true, build: over(cblocks, func(_ testing.TB, lf *leaf) storage.Device {
			d := storage.NewFlakyDevice(lf, storage.FlakyOptions{})
			for _, op := range []storage.Op{storage.OpRead, storage.OpWrite, storage.OpSync} {
				d.FailAfter(op, 1<<30, nil)
			}
			return d
		})},
		{name: "flaky", oneToOne: true, build: over(cblocks, func(_ testing.TB, lf *leaf) storage.Device {
			return storage.NewFlakyDevice(lf, storage.FlakyOptions{})
		})},
		{name: "crash", build: over(cblocks, func(_ testing.TB, lf *leaf) storage.Device { return storage.NewCrashDevice(lf) })},
		// The virtual testbed's charging wrapper, one row per rule: flash,
		// thin and crypt pricing of the same forwarded call.
		{name: "cost", oneToOne: true, build: costOver(vclock.Flash)},
		{name: "cost-thin", oneToOne: true, build: costOver(vclock.Thin)},
		{name: "cost-crypt", oneToOne: true, build: costOver(vclock.Crypt)},
		{name: "crypt", oneToOne: true, build: over(cblocks, func(t testing.TB, lf *leaf) storage.Device {
			x, err := xcrypto.NewXTSPlain64(key)
			if err != nil {
				t.Fatal(err)
			}
			return dm.NewCrypt(lf, x)
		})},
		{name: "thin", provisioning: true, rangeChecksDiscard: true, build: over(4*cblocks, func(t testing.TB, lf *leaf) storage.Device {
			meta := storage.NewMemDevice(cbs, thinp.MetaBlocksNeeded(4*cblocks, cbs))
			pool, err := thinp.CreatePool(lf, meta, thinp.Options{
				Allocator: thinp.NewRandomAllocator(prng.NewSource(9)),
				Entropy:   prng.NewSeededEntropy(1),
				DummySrc:  prng.NewSource(2),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.CreateThin(1, cblocks); err != nil {
				t.Fatal(err)
			}
			thin, err := pool.Thin(1)
			if err != nil {
				t.Fatal(err)
			}
			return thin
		})},
		{name: "file", build: func(t testing.TB, image []byte) (storage.Device, *leaf) {
			d, err := storage.CreateFileDevice(filepath.Join(t.TempDir(), "img"), cbs, cblocks)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = d.Close() })
			if err := storage.WriteBlocks(d, 0, image); err != nil {
				t.Fatal(err)
			}
			return d, nil
		}},
		{name: "snapshot", readOnly: true, build: func(t testing.TB, image []byte) (storage.Device, *leaf) {
			mem := storage.NewMemDevice(cbs, cblocks)
			if err := storage.WriteBlocks(mem, 8, image[8*cbs:24*cbs]); err != nil {
				t.Fatal(err)
			}
			snap := mem.Snapshot()
			// The snapshot reads zeros where the image was not written:
			// the oracle is primed from the snapshot itself.
			if err := storage.ReadBlocks(plainDevice{snap}, 0, image); err != nil {
				t.Fatal(err)
			}
			return snap, nil
		}},
	}
}

// A row's layout is three bytes per request: start block; block count in
// the low nibble, 0x80 set for a vec in the wrong block unit; and a split
// mask — bit i set puts a segment boundary after block i+1.
type row struct {
	name   string
	layout []byte
	failAt int // fail the leaf's failAt'th transfer (oneToOne layers only)
}

var table = []row{
	{name: "one block", layout: []byte{5, 1, 0}},
	{name: "flat N", layout: []byte{3, 7, 0}},
	{name: "multi-segment", layout: []byte{10, 7, 0b110}},
	{name: "whole device in single blocks", layout: []byte{0, 15, 0xff, 15, 15, 0xff, 30, 15, 0xff, 45, 3, 0xff}},
	{name: "zero-length past the end", layout: []byte{57, 0, 0}},
	{name: "batch of scattered requests", layout: []byte{40, 1, 0, 2, 3, 0b10, 20, 4, 0, 30, 1, 0}},
	{name: "out of range", layout: []byte{46, 4, 0}},
	{name: "starts past the end", layout: []byte{48, 1, 0}},
	{name: "bad segment length", layout: []byte{0, 0x83, 0}},
	{name: "request 1 of 3 refused", layout: []byte{4, 2, 0, 47, 3, 0b1, 9, 1, 0}},
	{name: "request 1 of 3 fails below", layout: []byte{4, 2, 0, 12, 3, 0b1, 9, 1, 0}, failAt: 2},
	{name: "first request fails below", layout: []byte{4, 2, 0b1, 12, 1, 0}, failAt: 1},
}

// decode turns a layout into one call's requests, each over fresh buffers
// and tagged with a flight id of its own.
func decode(op storage.Op, layout []byte) []storage.Req {
	if op == storage.OpSync {
		return []storage.Req{{Op: op, FID: 1000}}
	}
	var reqs []storage.Req
	for ; len(layout) >= 3 && len(reqs) < 6; layout = layout[3:] {
		start, n, split := uint64(layout[0]), int(layout[1]&0x0f), layout[2]
		r := storage.Req{Op: op, Start: start, FID: 1000 + uint64(len(reqs))}
		switch {
		case op == storage.OpDiscard:
			r.Count = uint64(n)
		case n == 0:
			r.Vec = storage.Vec(cbs)
		case layout[1]&0x80 != 0:
			r.Vec = storage.Vec(cbs/2, make([]byte, n*cbs))
		default:
			buf := make([]byte, n*cbs)
			var segs [][]byte
			for from, b := 0, 1; b <= n; b++ {
				if b == n || split&(1<<(b-1)) != 0 {
					segs = append(segs, buf[from*cbs:b*cbs])
					from = b
				}
			}
			r.Vec = storage.Vec(cbs, segs...)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// flat gathers v's segments into one buffer.
func flat(v storage.BlockVec) []byte {
	var out []byte
	_ = v.Range(func(_ int, seg []byte) error {
		out = append(out, seg...)
		return nil
	})
	return out
}

// refused is the oracle's validation: what a device of cblocks blocks must
// answer to r before touching anything.
func refused(r *storage.Req, l *layer) error {
	n := uint64(r.Blocks())
	switch {
	case r.Op == storage.OpWrite && l.readOnly:
		return storage.ErrReadOnly
	case r.Op == storage.OpDiscard && !l.rangeChecksDiscard, n == 0:
		return nil
	case r.Op != storage.OpDiscard && r.Vec.BlockSize() != cbs:
		return storage.ErrBadBuffer
	case r.Start >= cblocks || n > cblocks-r.Start:
		return storage.ErrOutOfRange
	}
	return nil
}

// check runs one call on the device under test and holds it to the oracle:
// ref takes the per-block loop over the requests in order, up to the first
// one that must fail.
func check(t testing.TB, l *layer, dut storage.Device, lf *leaf, ref *storage.MemDevice, reqs []storage.Req, failAt int) (atLeaf []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(reqs))))
	want := make([][]byte, len(reqs))
	failed, wantErr := len(reqs), error(nil)
	for i := range reqs {
		r := &reqs[i]
		if wantErr = refused(r, l); wantErr == nil && i == failAt-1 {
			wantErr = errLeaf
		}
		if wantErr != nil {
			failed = i
			break
		}
		buf := make([]byte, r.Blocks()*cbs)
		for b := 0; b*cbs < len(buf); b++ {
			idx, blk := r.Start+uint64(b), buf[b*cbs:(b+1)*cbs]
			var err error
			switch r.Op {
			case storage.OpRead:
				err = ref.ReadBlock(idx, blk)
			case storage.OpWrite:
				rng.Read(blk)
				err = ref.WriteBlock(idx, blk)
			case storage.OpDiscard:
				if l.provisioning {
					err = ref.WriteBlock(idx, blk)
				}
			}
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
		}
		if r.Op == storage.OpWrite {
			_ = r.Vec.Range(func(off int, seg []byte) error {
				copy(seg, buf[off*cbs:])
				return nil
			})
		}
		want[i] = buf
	}
	if lf != nil {
		lf.failAt, lf.seen, lf.fids = failAt, 0, nil
	}
	submitted := append([]storage.Req(nil), reqs...)

	err := storage.Do(dut, reqs)

	if got := storage.FirstFailed(reqs); got != failed {
		t.Fatalf("first failed request = %d, want %d (err %v)", got, failed, err)
	}
	if (failed == len(reqs)) != (err == nil) || !errors.Is(err, wantErr) {
		t.Fatalf("Do = %v, want %v", err, wantErr)
	}
	for i := range reqs {
		r := &reqs[i]
		switch {
		case i < failed && !r.OK():
			t.Fatalf("request %d before the failure: Done %d of %d, Err %v", i, r.Done, r.Blocks(), r.Err)
		case i < failed && r.Op == storage.OpRead && !bytes.Equal(flat(r.Vec), want[i]) && r.Blocks() > 0:
			t.Fatalf("request %d read bytes the per-block loop does not", i)
		case i == failed && (r.Err != err || r.Done != 0):
			t.Fatalf("failed request %d: Done %d, Err %v; Do returned %v", i, r.Done, r.Err, err)
		case i > failed && (r.Done != 0 || r.Err != nil):
			t.Fatalf("request %d after the failure was attempted: Done %d, Err %v", i, r.Done, r.Err)
		}
		// Whatever a layer edits to forward a request, it restores.
		was := submitted[i]
		same := r.Op == was.Op && r.Start == was.Start && r.Count == was.Count && r.FID == was.FID &&
			r.Vec.Segments() == was.Vec.Segments() && r.Vec.BlockSize() == was.Vec.BlockSize()
		for s := 0; same && s < r.Vec.Segments(); s++ {
			same = &r.Vec.Seg(s)[0] == &was.Vec.Seg(s)[0] && len(r.Vec.Seg(s)) == len(was.Vec.Seg(s))
		}
		if !same {
			t.Fatalf("request %d came back changed: %+v, submitted %+v", i, *r, was)
		}
	}
	if lf != nil {
		lf.failAt = 0
		atLeaf = append(atLeaf, lf.fids...)
		for _, fid := range atLeaf {
			if fid < 1000 || fid >= 1000+uint64(len(reqs)) {
				t.Fatalf("the leaf saw flight id %d, submitted were 1000..%d", fid, 999+len(reqs))
			}
		}
	}
	got, ideal := make([]byte, cblocks*cbs), make([]byte, cblocks*cbs)
	if err := storage.ReadBlocks(plainDevice{dut}, 0, got); err != nil {
		t.Fatalf("reading the device back: %v", err)
	}
	if err := storage.ReadBlocks(ref, 0, ideal); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ideal) {
		t.Fatal("device contents differ from the per-block oracle")
	}
	return atLeaf
}

// primed builds l and its oracle holding the same seeded image.
func primed(t testing.TB, l *layer) (storage.Device, *leaf, *storage.MemDevice) {
	image := make([]byte, cblocks*cbs)
	rand.New(rand.NewSource(11)).Read(image)
	dut, lf := l.build(t, image)
	ref := storage.NewMemDevice(cbs, cblocks)
	if err := storage.WriteBlocks(ref, 0, image); err != nil {
		t.Fatal(err)
	}
	return dut, lf, ref
}

func TestDoConformance(t *testing.T) {
	ops := map[string]storage.Op{"read": storage.OpRead, "write": storage.OpWrite, "discard": storage.OpDiscard}
	for _, l := range layers() {
		t.Run(l.name, func(t *testing.T) {
			dut, lf, ref := primed(t, &l)
			for _, rw := range table {
				for opName, op := range ops {
					if rw.failAt > 0 && (!l.oneToOne || op == storage.OpDiscard) {
						continue
					}
					t.Run(rw.name+"/"+opName, func(t *testing.T) {
						check(t, &l, dut, lf, ref, decode(op, rw.layout), rw.failAt)
					})
				}
			}
			t.Run("sync", func(t *testing.T) {
				atLeaf := check(t, &l, dut, lf, ref, decode(storage.OpSync, nil), 0)
				if l.oneToOne && len(atLeaf) != 1 {
					t.Fatalf("the sync reached the leaf as %v, want one request", atLeaf)
				}
			})
			if lf != nil && len(lf.fids) == 0 {
				t.Fatal("no request ever reached the leaf")
			}
		})
	}
	t.Run("stats are invariant to segmentation and batching", statsInvariance)
}

// statsInvariance moves the same blocks three ways — block by block, as
// flat requests, as one call of multi-segment requests — and requires the
// block and byte counters to agree.
func statsInvariance(t *testing.T) {
	const calls = 4
	snapshot := func(drive func(d storage.Device, op storage.Op, start uint64, buf []byte)) [4]uint64 {
		sd := storage.NewStatsDevice(storage.NewMemDevice(cbs, cblocks))
		for _, op := range []storage.Op{storage.OpWrite, storage.OpRead} {
			for c := uint64(0); c < calls; c++ {
				drive(sd, op, 10*c, make([]byte, 6*cbs))
			}
		}
		m := sd.Metrics().Snapshot()
		return [4]uint64{m.ReadBlocks, m.WriteBlocks, m.BytesRead, m.BytesWrite}
	}
	perBlock := snapshot(func(d storage.Device, op storage.Op, start uint64, buf []byte) {
		for b := uint64(0); b < 6; b++ {
			if err := storage.DoBlock(d, op, start+b, buf[b*cbs:(b+1)*cbs]); err != nil {
				t.Fatal(err)
			}
		}
	})
	flat := snapshot(func(d storage.Device, op storage.Op, start uint64, buf []byte) {
		if err := storage.Do(d, []storage.Req{{Op: op, Start: start, Vec: storage.VecOne(cbs, buf)}}); err != nil {
			t.Fatal(err)
		}
	})
	batched := snapshot(func(d storage.Device, op storage.Op, start uint64, buf []byte) {
		reqs := []storage.Req{
			{Op: op, Start: start, Vec: storage.Vec(cbs, buf[:cbs], buf[cbs:4*cbs])},
			{Op: op, Start: start + 4, Vec: storage.Vec(cbs, buf[4*cbs:5*cbs], buf[5*cbs:])},
		}
		if err := storage.Do(d, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if perBlock != flat || flat != batched || flat != [4]uint64{6 * calls, 6 * calls, 6 * calls * cbs, 6 * calls * cbs} {
		t.Fatalf("counters depend on the request shape:\n per block %+v\n flat      %+v\n batched   %+v", perBlock, flat, batched)
	}
}

// FuzzDo: arbitrary (layer, op, leaf fault, batch layout) either fails the
// way the oracle says or moves exactly the oracle's bytes — never a panic,
// never an out-of-bounds slice.
func FuzzDo(f *testing.F) {
	ls := layers()
	for li := range ls {
		for _, rw := range table {
			f.Add(uint8(li), uint8(li)%4, uint8(rw.failAt), rw.layout)
		}
	}
	f.Fuzz(func(t *testing.T, li, opSel, failAt uint8, layout []byte) {
		l := &ls[int(li)%len(ls)]
		op := []storage.Op{storage.OpRead, storage.OpWrite, storage.OpDiscard, storage.OpSync}[opSel%4]
		dut, lf, ref := primed(t, l)
		reqs := decode(op, layout)
		if !l.oneToOne || op == storage.OpDiscard || op == storage.OpSync || int(failAt) > len(reqs) {
			failAt = 0
		}
		// A second call checks that nothing of the first lingers: same
		// requests, no fault.
		check(t, l, dut, lf, ref, reqs, int(failAt))
		check(t, l, dut, lf, ref, decode(op, layout), 0)
	})
}
