package thinp

import (
	"slices"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestBlockSet pins the dense set the transaction record is made of:
// membership, ascending iteration, the OR-back a failed commit uses, and a
// reset that clears only what was touched — after a large delta the set is
// empty and the next reset touches nothing.
func TestBlockSet(t *testing.T) {
	const bound = 1 << 16
	s := newBlockSet(bound)
	src := prng.NewSource(1)
	want := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		b := src.Uint64n(bound)
		s.add(b)
		want[b] = true
	}
	for b := range want {
		if b%3 == 0 {
			if !s.remove(b) {
				t.Fatalf("remove(%d) of a member reported false", b)
			}
			delete(want, b)
		}
	}
	s.remove(bound - 1)
	delete(want, bound-1)
	if s.remove(bound - 1) {
		t.Fatal("remove of a non-member reported true")
	}
	var got []uint64
	s.forEach(func(b uint64) { got = append(got, b) })
	wantList := make([]uint64, 0, len(want))
	for b := range want {
		wantList = append(wantList, b)
	}
	slices.Sort(wantList)
	if !slices.Equal(got, wantList) {
		t.Fatalf("forEach yields %d members, not the %d added in ascending order", len(got), len(wantList))
	}
	if s.len() != len(want) {
		t.Fatalf("len %d, want %d", s.len(), len(want))
	}
	for _, b := range wantList[:10] {
		if !s.has(b) || s.has(b+bound/2) != want[b+bound/2] {
			t.Fatalf("has(%d) wrong", b)
		}
	}

	o := newBlockSet(bound)
	o.add(wantList[0]) // already in s
	o.add(7)
	o.add(bound - 2)
	n := s.len() + 2 - btoi(s.has(7)) - btoi(s.has(bound-2))
	s.or(o)
	if s.len() != n || !s.has(7) || !s.has(bound-2) {
		t.Fatalf("or: len %d, want %d", s.len(), n)
	}

	if s.reset() == 0 || s.len() != 0 {
		t.Fatal("reset after a large delta cleared nothing or left members")
	}
	empty := true
	s.forEach(func(uint64) { empty = false })
	if !empty || slices.ContainsFunc(s.words, func(w uint64) bool { return w != 0 }) {
		t.Fatal("reset left bits set")
	}
	if cleared := s.reset(); cleared != 0 {
		t.Fatalf("a reset of an empty set cleared %d words", cleared)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTransactionRecordAllocatesNothing: once warm, steady
// allocate → release → commit cycles — raw allocations freed from committed
// state a round later, and a thin's discard-and-reprovision patched in
// place — allocate nothing on the heap: the record's sets and the thin's
// delta bits are reset in place and the commit swaps in a cleared spare.
func TestTransactionRecordAllocatesNothing(t *testing.T) {
	const dataBlocks = 4096
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(1)),
		Entropy:   prng.NewSeededEntropy(2),
		DummySrc:  prng.NewSource(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 256); err != nil {
		t.Fatal(err)
	}
	tm := p.thins[1]
	provision := func() {
		p.mu.RLock()
		defer p.mu.RUnlock()
		for vb := uint64(0); vb < 4; vb++ {
			if _, err := p.provisionVB(tm, vb, false, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit := func() {
		p.commitMu.Lock()
		defer p.commitMu.Unlock()
		if err := p.commitOnce(nil); err != nil {
			t.Fatal(err)
		}
	}
	provision()
	commit()
	// raw holds blocks allocated outside any thin, each released a round
	// after its allocation committed.
	raw := make([]uint64, 0, 8)
	cycle := func() {
		p.mu.Lock()
		for _, pb := range raw {
			if _, err := p.release(pb); err != nil {
				t.Fatal(err)
			}
		}
		for vb := uint64(0); vb < 4; vb++ {
			if err := p.discardLocked(tm, vb); err != nil {
				t.Fatal(err)
			}
		}
		p.mu.Unlock()
		p.mu.RLock()
		raw = raw[:0]
		for i := 0; i < cap(raw); i++ {
			pb, err := p.allocate(0)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, pb)
		}
		p.mu.RUnlock()
		provision()
		commit()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a steady allocate/release/commit cycle allocates %.1f times", allocs)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
