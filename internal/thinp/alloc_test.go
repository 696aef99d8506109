package thinp

import (
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestThinOverwriteNoAllocs pins the steady-state allocation cost of the
// thin I/O hot path: overwriting and reading an already-provisioned block
// through the scatter-gather contract must not allocate. The stack-backed
// small-vec in storage.BlockVec (single-segment vecs and Slice results
// carry their segment inline) is what keeps this at zero; this assertion
// keeps it from regressing.
func TestThinOverwriteNoAllocs(t *testing.T) {
	data := storage.NewMemDevice(4096, 1<<12)
	meta := storage.NewMemDevice(4096, MetaBlocksNeeded(1<<12, 4096))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 1<<12); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*4096)
	v := storage.Vec(4096, buf)
	// Provision the blocks and materialize the MemDevice slabs so the
	// measured loop is pure steady-state overwrite.
	if err := storage.WriteBlocksVec(thin, 0, v); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := storage.WriteBlocksVec(thin, 0, v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 && !raceEnabled {
		t.Errorf("overwrite WriteBlocksVec allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := storage.ReadBlocksVec(thin, 0, v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 && !raceEnabled {
		t.Errorf("ReadBlocksVec allocates %.1f/op, want 0", allocs)
	}
	// The WriteBlock/ReadBlock convenience wrappers build their
	// single-segment vec inline; the small-vec keeps them free too.
	one := make([]byte, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := thin.WriteBlock(7, one); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 && !raceEnabled {
		t.Errorf("overwrite WriteBlock allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := thin.ReadBlock(7, one); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 && !raceEnabled {
		t.Errorf("ReadBlock allocates %.1f/op, want 0", allocs)
	}
}
