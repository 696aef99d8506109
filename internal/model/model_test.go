package model

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
)

func newScheme(t testing.TB, passwords []string, seed uint64) *MobiCealScheme {
	t.Helper()
	s, err := SetupMobiCeal(Params{
		Passwords:  passwords,
		MaxVolumes: len(passwords) + 4,
		Seed:       seed,
	})
	if err != nil {
		t.Fatalf("SetupMobiCeal: %v", err)
	}
	return s
}

func TestSchemeReadYourWrites(t *testing.T) {
	s := newScheme(t, []string{"p1", "p2", "p3"}, 1)
	if s.VolumeCount() != 3 {
		t.Fatalf("l = %d", s.VolumeCount())
	}
	src := prng.NewSource(2)
	for i := 1; i <= 3; i++ {
		d := make([]byte, 4096)
		if _, err := src.Read(d); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(7, d, i); err != nil {
			t.Fatalf("Write(V_%d): %v", i, err)
		}
		got, err := s.Read(7, i)
		if err != nil {
			t.Fatalf("Read(V_%d): %v", i, err)
		}
		if !bytes.Equal(d, got) {
			t.Fatalf("V_%d: read != write", i)
		}
	}
}

func TestSchemeVolumesIndependent(t *testing.T) {
	// The formal model requires {V_i} to be independent: writing block b
	// of V_i must not affect block b of V_j.
	s := newScheme(t, []string{"p1", "p2", "p3"}, 3)
	marks := map[int][]byte{}
	for i := 1; i <= 3; i++ {
		d := bytes.Repeat([]byte{byte(0x10 * i)}, 4096)
		if err := s.Write(5, d, i); err != nil {
			t.Fatal(err)
		}
		marks[i] = d
	}
	for i := 1; i <= 3; i++ {
		got, err := s.Read(5, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marks[i]) {
			t.Fatalf("V_%d cross-contaminated", i)
		}
	}
}

func TestSchemeIndexAndRangeErrors(t *testing.T) {
	s := newScheme(t, []string{"p1", "p2"}, 4)
	if _, err := s.Read(0, 0); !errors.Is(err, ErrVolumeIndex) {
		t.Fatalf("V_0 err = %v", err)
	}
	if _, err := s.Read(0, 3); !errors.Is(err, ErrVolumeIndex) {
		t.Fatalf("V_3 err = %v", err)
	}
	if err := s.Write(0, make([]byte, 4096), 9); !errors.Is(err, ErrVolumeIndex) {
		t.Fatalf("V_9 err = %v", err)
	}
	n, err := s.VolumeBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(n, 1); !errors.Is(err, ErrBlockRange) {
		t.Fatalf("past-end err = %v", err)
	}
	if _, err := s.VolumeBlocks(0); !errors.Is(err, ErrVolumeIndex) {
		t.Fatalf("VolumeBlocks(0) err = %v", err)
	}
}

func TestSchemeUnwrittenReadsDeterministicGarbage(t *testing.T) {
	// An unprovisioned thin block reads as zeros, which dm-crypt decrypts
	// into key-dependent pseudorandom bytes — exactly what real dm-crypt
	// over thin provisioning does. The model only requires determinism.
	s := newScheme(t, []string{"p1", "p2"}, 5)
	a, err := s.Read(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Read(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("unwritten read not deterministic")
	}
	// And it is not trivially zero (that would leak provisioning state
	// through the decrypted view in a structured way).
	var or byte
	for _, c := range a {
		or |= c
	}
	if or == 0 {
		t.Fatal("decrypted unprovisioned block is all zero")
	}
}

func TestSchemeRequiresPublicPassword(t *testing.T) {
	if _, err := SetupMobiCeal(Params{}); err == nil {
		t.Fatal("Setup with no passwords succeeded")
	}
}

// Property: arbitrary interleaved writes across volumes behave like
// independent shadow arrays.
func TestSchemePropertyShadow(t *testing.T) {
	s := newScheme(t, []string{"p1", "p2", "p3"}, 6)
	type key struct {
		vol   int
		block uint64
	}
	shadow := map[key]byte{}
	f := func(ops []struct {
		Vol   uint8
		Block uint16
		Fill  byte
	}) bool {
		for _, op := range ops {
			vol := int(op.Vol%3) + 1
			block := uint64(op.Block % 64)
			d := bytes.Repeat([]byte{op.Fill}, 4096)
			if err := s.Write(block, d, vol); err != nil {
				return false
			}
			shadow[key{vol, block}] = op.Fill
		}
		for k, fill := range shadow {
			got, err := s.Read(k.block, k.vol)
			if err != nil {
				return false
			}
			if got[0] != fill || got[4095] != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSchemeWritesStayDeniable(t *testing.T) {
	// Driving the formal interface directly (no file system) must keep the
	// device free of unaccountable changes, matching Lemma VI.1's setting.
	s := newScheme(t, []string{"p1", "p2"}, 7)
	if err := s.sys.Commit(); err != nil {
		t.Fatal(err)
	}
	before := s.dev.Snapshot()
	d := make([]byte, 4096)
	if _, err := prng.NewSource(8).Read(d); err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < 20; b++ {
		if err := s.Write(b, d, 2); err != nil { // hidden writes
			t.Fatal(err)
		}
	}
	for b := uint64(0); b < 50; b++ {
		if err := s.Write(b, d, 1); err != nil { // public refresh
			t.Fatal(err)
		}
	}
	if err := s.sys.Commit(); err != nil {
		t.Fatal(err)
	}
	after := s.dev.Snapshot()
	diff := before.Diff(after)
	if len(diff) == 0 {
		t.Fatal("no changes recorded")
	}
}
