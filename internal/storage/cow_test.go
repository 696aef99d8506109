package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSnapshotCoWAliasing hammers the copy-on-write seal: snapshots taken
// at checkpoints of a randomized write workload must keep returning the
// exact bytes of their capture instant — and diffing against the live
// device's later snapshots must report exactly the blocks that changed —
// no matter how the shared slabs are mutated afterwards.
func TestSnapshotCoWAliasing(t *testing.T) {
	const (
		bs        = 256
		numBlocks = 4 * dirBlocks // span several directories
	)
	rng := rand.New(rand.NewSource(77))
	d := NewMemDevice(bs, numBlocks)

	// Reference model: a plain map of the device's explicit writes.
	model := map[uint64][]byte{}
	writeRandom := func(n int) {
		buf := make([]byte, bs)
		for i := 0; i < n; i++ {
			idx := uint64(rng.Intn(numBlocks))
			rng.Read(buf)
			if err := d.WriteBlock(idx, buf); err != nil {
				t.Fatal(err)
			}
			model[idx] = append([]byte(nil), buf...)
		}
	}
	snapModel := func() map[uint64][]byte {
		cp := make(map[uint64][]byte, len(model))
		for k, v := range model {
			cp[k] = v
		}
		return cp
	}
	checkSnap := func(snap *Snapshot, want map[uint64][]byte) {
		t.Helper()
		got := make([]byte, bs)
		zero := make([]byte, bs)
		for _, idx := range []uint64{0, 1, slabBlocks - 1, slabBlocks, dirBlocks - 1, dirBlocks, numBlocks - 1} {
			if err := snap.ReadBlock(idx, got); err != nil {
				t.Fatalf("snapshot read %d: %v", idx, err)
			}
			w, ok := want[idx]
			if !ok {
				w = zero
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("snapshot block %d diverged from capture-time content", idx)
			}
		}
		for idx, w := range want {
			if err := snap.ReadBlock(idx, got); err != nil {
				t.Fatalf("snapshot read %d: %v", idx, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("snapshot block %d diverged from capture-time content", idx)
			}
		}
	}

	writeRandom(300)
	snap1 := d.Snapshot()
	want1 := snapModel()
	checkSnap(snap1, want1)

	// Mutate heavily after the capture, including overwrites of snapshotted
	// blocks; the snapshot must not move.
	writeRandom(500)
	checkSnap(snap1, want1)

	snap2 := d.Snapshot()
	want2 := snapModel()
	writeRandom(200)
	checkSnap(snap1, want1)
	checkSnap(snap2, want2)

	// Diff(snap1, snap2) must list exactly the blocks whose content
	// changed between the two captures.
	wantDiff := map[uint64]bool{}
	for idx, b2 := range want2 {
		b1, ok := want1[idx]
		if !ok {
			// Unwritten at snap1, so it read as zeros there.
			b1 = make([]byte, bs)
		}
		if !bytes.Equal(b1, b2) {
			wantDiff[idx] = true
		}
	}
	diff := snap1.Diff(snap2)
	if len(diff) != len(wantDiff) {
		t.Fatalf("diff size %d, want %d", len(diff), len(wantDiff))
	}
	for i, idx := range diff {
		if !wantDiff[idx] {
			t.Fatalf("diff contains %d which did not change", idx)
		}
		if i > 0 && diff[i-1] >= idx {
			t.Fatalf("diff not sorted ascending at %d", i)
		}
	}
}

// TestSnapshotSharedSlabSkipsStayExact pins the pointer-equality fast path:
// a diff of two snapshots with a tiny dirty set in a sea of shared slabs
// still reports exactly the dirty blocks.
func TestSnapshotSharedSlabSkipsStayExact(t *testing.T) {
	const bs = 128
	d := NewMemDevice(bs, 2*dirBlocks)
	buf := make([]byte, bs)
	for i := range buf {
		buf[i] = 1
	}
	// Populate a broad cold set.
	for idx := uint64(0); idx < 2*dirBlocks; idx += 97 {
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatal(err)
		}
	}
	s1 := d.Snapshot()
	for i := range buf {
		buf[i] = 2
	}
	touched := []uint64{3, slabBlocks * 7, dirBlocks + 11}
	for _, idx := range touched {
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatal(err)
		}
	}
	// An overwrite with identical bytes clones the slab but must not
	// appear in the diff.
	same := make([]byte, bs)
	for i := range same {
		same[i] = 1
	}
	if err := d.WriteBlock(97, same); err != nil {
		t.Fatal(err)
	}
	s2 := d.Snapshot()
	diff := s1.Diff(s2)
	if len(diff) != len(touched) {
		t.Fatalf("diff = %v, want %v", diff, touched)
	}
	for i, idx := range touched {
		if diff[i] != idx {
			t.Fatalf("diff = %v, want %v", diff, touched)
		}
	}
}

// TestMemDeviceRangeOpsCrossSlabs exercises the bulk range path across slab
// and directory boundaries against per-block reference reads.
func TestMemDeviceRangeOpsCrossSlabs(t *testing.T) {
	const bs = 64
	d := NewMemDevice(bs, dirBlocks+3*slabBlocks)
	rng := rand.New(rand.NewSource(3))

	span := 3*slabBlocks + 5
	src := make([]byte, span*bs)
	rng.Read(src)
	start := uint64(dirBlocks - 2*slabBlocks - 3) // crosses slabs and the dir boundary
	if err := WriteBlocks(d, start, src); err != nil {
		t.Fatal(err)
	}
	if got, want := writtenBlocks(d), span; got != want {
		t.Fatalf("WrittenBlocks = %d, want %d", got, want)
	}

	// Bulk read over a larger window including unwritten blocks.
	rdStart := start - 7
	rdSpan := span + 20
	got := make([]byte, rdSpan*bs)
	if err := ReadBlocks(d, rdStart, got); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, bs)
	for i := 0; i < rdSpan; i++ {
		if err := d.ReadBlock(rdStart+uint64(i), one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i*bs:(i+1)*bs], one) {
			t.Fatalf("ReadBlocks block %d differs from ReadBlock", i)
		}
	}

	// Snapshot range reads agree too.
	snap := d.Snapshot()
	if err := ReadBlocks(snap, rdStart, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rdSpan; i++ {
		if err := snap.ReadBlock(rdStart+uint64(i), one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i*bs:(i+1)*bs], one) {
			t.Fatalf("snapshot ReadBlocks block %d differs from ReadBlock", i)
		}
	}
}
