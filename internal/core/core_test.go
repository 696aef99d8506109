package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

const blockSize = 4096

func testConfig(seed uint64) Config {
	return Config{
		NumVolumes: 6,
		Lambda:     1,
		X:          50,
		KDFIter:    16, // keep tests fast; crypto correctness is covered in xcrypto
		Entropy:    prng.NewSeededEntropy(seed),
		Seed:       seed,
		SeedSet:    true,
	}
}

func newSystem(t testing.TB, seed uint64, hidden []string) (*System, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice(blockSize, 4096) // 16 MB
	sys, err := Setup(dev, testConfig(seed), "decoy-pass", hidden)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return sys, dev
}

func TestSetupAndPublicRoundtrip(t *testing.T) {
	sys, _ := newSystem(t, 1, nil)
	vol, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	if vol.Mode() != ModePublic || vol.ID() != PublicVolumeID {
		t.Fatalf("vol = id %d mode %v", vol.ID(), vol.Mode())
	}
	fs, err := vol.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("public shopping list")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Remount through a fresh volume object.
	vol2, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := vol2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("public volume roundtrip mismatch")
	}
}

func TestWrongPublicPasswordFailsMount(t *testing.T) {
	sys, _ := newSystem(t, 2, nil)
	vol, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vol.Format(); err != nil {
		t.Fatal(err)
	}
	wrong, err := sys.OpenPublic("not-the-password")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Mount(); err == nil {
		t.Fatal("mount with wrong password succeeded")
	}
}

func TestHiddenVolumeLifecycle(t *testing.T) {
	sys, _ := newSystem(t, 3, []string{"hidden-pw-1"})
	id, ok := sys.VerifyHidden("hidden-pw-1")
	if !ok {
		t.Fatal("VerifyHidden rejected the real hidden password")
	}
	if id < 2 || id > sys.NumVolumes() {
		t.Fatalf("hidden id %d out of range", id)
	}
	if _, ok := sys.VerifyHidden("wrong"); ok {
		t.Fatal("VerifyHidden accepted a wrong password")
	}

	vol, err := sys.OpenHidden("hidden-pw-1")
	if err != nil {
		t.Fatal(err)
	}
	if vol.Mode() != ModeHidden || vol.ID() != id {
		t.Fatalf("vol = id %d mode %v", vol.ID(), vol.Mode())
	}
	fs, err := vol.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("secret.doc")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("sensitive evidence")
	if _, err := f.WriteAt(secret, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	vol2, err := sys.OpenHidden("hidden-pw-1")
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := vol2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("secret.doc")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(secret, got) {
		t.Fatal("hidden volume roundtrip mismatch")
	}
}

func TestOpenHiddenRejectsBadPassword(t *testing.T) {
	sys, _ := newSystem(t, 4, []string{"hidden-pw"})
	if _, err := sys.OpenHidden("nope"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v, want ErrBadPassword", err)
	}
	// The decoy password opens no hidden volume either.
	if _, err := sys.OpenHidden("decoy-pass"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("decoy on hidden err = %v, want ErrBadPassword", err)
	}
}

func TestDeviceWithoutHiddenVolumeRejectsAll(t *testing.T) {
	sys, _ := newSystem(t, 5, nil)
	for _, pwd := range []string{"a", "b", "decoy-pass"} {
		if _, err := sys.OpenHidden(pwd); !errors.Is(err, ErrBadPassword) {
			t.Fatalf("OpenHidden(%q) err = %v, want ErrBadPassword", pwd, err)
		}
	}
}

func TestMultiLevelDeniability(t *testing.T) {
	hidden := []string{"level-one-pw", "level-two-pw", "level-three-pw"}
	sys, _ := newSystem(t, 6, hidden)
	ids := map[int]bool{}
	for _, pwd := range hidden {
		vol, err := sys.OpenHidden(pwd)
		if err != nil {
			t.Fatalf("OpenHidden(%q): %v", pwd, err)
		}
		if ids[vol.ID()] {
			t.Fatalf("volume id %d reused across hidden passwords", vol.ID())
		}
		ids[vol.ID()] = true
		fs, err := vol.Format()
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("data-" + pwd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte(pwd), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Each hidden volume sees only its own data.
	for _, pwd := range hidden {
		vol, err := sys.OpenHidden(pwd)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := vol.Mount()
		if err != nil {
			t.Fatal(err)
		}
		names := fs.List()
		if len(names) != 1 || names[0] != "data-"+pwd {
			t.Fatalf("volume for %q lists %v", pwd, names)
		}
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	sys, dev := newSystem(t, 7, []string{"hidden-pw"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pubFS.Create("pub.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.WriteAt([]byte("public"), 0); err != nil {
		t.Fatal(err)
	}
	if err := pubFS.Sync(); err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pw")
	if err != nil {
		t.Fatal(err)
	}
	hidFS, err := hid.Format()
	if err != nil {
		t.Fatal(err)
	}
	hf, err := hidFS.Create("hid.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.WriteAt([]byte("hidden"), 0); err != nil {
		t.Fatal(err)
	}
	if err := hidFS.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reboot: open the same device fresh.
	sys2, err := Open(dev, Config{
		KDFIter: 16,
		Entropy: prng.NewSeededEntropy(99),
		Seed:    99,
		SeedSet: true,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if sys2.NumVolumes() != 6 {
		t.Fatalf("NumVolumes = %d after reopen", sys2.NumVolumes())
	}
	pub2, err := sys2.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	pubFS2, err := pub2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if names := pubFS2.List(); len(names) != 1 || names[0] != "pub.txt" {
		t.Fatalf("public names after reopen = %v", names)
	}
	hid2, err := sys2.OpenHidden("hidden-pw")
	if err != nil {
		t.Fatal(err)
	}
	hidFS2, err := hid2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if names := hidFS2.List(); len(names) != 1 || names[0] != "hid.txt" {
		t.Fatalf("hidden names after reopen = %v", names)
	}
}

func TestDummyWritesFireOnPublicTraffic(t *testing.T) {
	sys, _ := newSystem(t, 8, []string{"hidden-pw"})
	vol, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := vol.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 400*blockSize)
	if _, err := prng.NewSource(1).Read(data); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	decisions, fires, blocks := sys.Policy().Stats()
	if decisions == 0 {
		t.Fatal("no provisioning decisions recorded")
	}
	if fires == 0 || blocks == 0 {
		t.Fatalf("dummy writes never fired over %d decisions", decisions)
	}
	if got := sys.Pool().DummyBlocksWritten(); got == 0 {
		t.Fatal("pool wrote no dummy blocks")
	}
	// Firing probability must stay under 50% (rand in [1,2x] vs mod x).
	if rate := float64(fires) / float64(decisions); rate >= 0.5 {
		t.Fatalf("dummy fire rate %.2f >= 0.5", rate)
	}
}

func TestDummyWritesDoNotCorruptVolumes(t *testing.T) {
	// Heavy interleaved public+hidden traffic with dummy writes landing in
	// random volumes must never corrupt either file system.
	sys, _ := newSystem(t, 9, []string{"hidden-pw"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pw")
	if err != nil {
		t.Fatal(err)
	}
	hidFS, err := hid.Format()
	if err != nil {
		t.Fatal(err)
	}
	pubData := make([]byte, 200*blockSize)
	hidData := make([]byte, 100*blockSize)
	src := prng.NewSource(10)
	if _, err := src.Read(pubData); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Read(hidData); err != nil {
		t.Fatal(err)
	}
	pubF, err := pubFS.Create("p")
	if err != nil {
		t.Fatal(err)
	}
	hidF, err := hidFS.Create("h")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		off := int64(i) * 20 * blockSize
		if _, err := pubF.WriteAt(pubData[off:off+20*blockSize], off); err != nil {
			t.Fatal(err)
		}
		hoff := int64(i) * 10 * blockSize
		if _, err := hidF.WriteAt(hidData[hoff:hoff+10*blockSize], hoff); err != nil {
			t.Fatal(err)
		}
	}
	gotPub := make([]byte, len(pubData))
	if _, err := pubF.ReadAt(gotPub, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(pubData, gotPub) {
		t.Fatal("public data corrupted by dummy writes")
	}
	gotHid := make([]byte, len(hidData))
	if _, err := hidF.ReadAt(gotHid, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(hidData, gotHid) {
		t.Fatal("hidden data corrupted by dummy writes")
	}
}

func TestGCReclaimsOnlyUnprotectedDummySpace(t *testing.T) {
	sys, _ := newSystem(t, 11, []string{"hidden-pw"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := pubFS.Create("traffic")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600*blockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pw")
	if err != nil {
		t.Fatal(err)
	}
	hidFS, err := hid.Format()
	if err != nil {
		t.Fatal(err)
	}
	hf, err := hidFS.Create("keep")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("must survive GC")
	if _, err := hf.WriteAt(secret, 0); err != nil {
		t.Fatal(err)
	}
	if err := hidFS.Sync(); err != nil {
		t.Fatal(err)
	}
	hiddenID := hid.ID()
	hiddenBefore, err := sys.Pool().MappedBlocks(hiddenID)
	if err != nil {
		t.Fatal(err)
	}
	dummyBefore := sys.Pool().DummyBlocksWritten()
	if dummyBefore == 0 {
		t.Skip("workload produced no dummy blocks with this seed")
	}
	allocBefore := sys.Pool().AllocatedBlocks()

	report, err := sys.GC([]int{hiddenID}, prng.NewSource(12))
	if err != nil {
		t.Fatal(err)
	}
	if report.Reclaimed == 0 {
		t.Fatal("GC reclaimed nothing")
	}
	if report.Fraction < 0.05 || report.Fraction > 0.95 {
		t.Fatalf("fraction %v out of bounds", report.Fraction)
	}
	if report.Reclaimed >= report.Scanned {
		t.Fatal("GC reclaimed all dummy blocks — snapshot diff would expose hidden data")
	}
	if got := sys.Pool().AllocatedBlocks(); got != allocBefore-report.Reclaimed {
		t.Fatalf("allocated %d, want %d", got, allocBefore-report.Reclaimed)
	}
	hiddenAfter, err := sys.Pool().MappedBlocks(hiddenID)
	if err != nil {
		t.Fatal(err)
	}
	if hiddenAfter != hiddenBefore {
		t.Fatalf("protected hidden volume shrank: %d -> %d", hiddenBefore, hiddenAfter)
	}
	// Hidden data still readable.
	hid2, err := sys.OpenHidden("hidden-pw")
	if err != nil {
		t.Fatal(err)
	}
	hidFS2, err := hid2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	hf2, err := hidFS2.Open("keep")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	if _, err := hf2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(secret, got) {
		t.Fatal("hidden data lost after GC")
	}
}

// TestGCNilSourceAdvancesAcrossPasses pins the fix for GC(…, nil)
// re-seeding on every call: the system keeps one GC source, so the first
// pass draws exactly what a fresh Seed+0x6763 source draws (experiments and
// `*_virt` numbers that GC once are unchanged) and the second pass draws
// something else — a fixed reclaim fraction is what Sec. IV-D's random
// percentage exists to avoid.
func TestGCNilSourceAdvancesAcrossPasses(t *testing.T) {
	const seed = 11
	sys, _ := newSystem(t, seed, []string{"hidden-pw"})
	old := func() float64 { // the fraction every nil-source pass used to draw
		f := prng.NewSource(seed + 0x6763).Float64()
		return min(max(1-f*f, 0.05), 0.95)
	}()
	first, err := sys.GC(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.GC(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Fraction != old {
		t.Fatalf("first pass drew %v, want the seed's first draw %v", first.Fraction, old)
	}
	if second.Fraction == first.Fraction {
		t.Fatalf("second pass redrew the first pass's fraction %v", first.Fraction)
	}
	// A caller's own source is still honoured and leaves the system's alone.
	own, err := sys.GC(nil, prng.NewSource(seed+0x6763))
	if err != nil {
		t.Fatal(err)
	}
	if own.Fraction != old {
		t.Fatalf("explicit source drew %v, want %v", own.Fraction, old)
	}
}

func TestSetupErrors(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 4096)
	cfg := testConfig(13)
	cfg.NumVolumes = 1
	if _, err := Setup(dev, cfg, "p", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("1-volume err = %v, want ErrBadConfig", err)
	}
	cfg = testConfig(13)
	if _, err := Setup(dev, cfg, "p", []string{"a", "b", "c", "d", "e", "f"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("too-many-hidden err = %v, want ErrBadConfig", err)
	}
	tiny := storage.NewMemDevice(blockSize, 8)
	if _, err := Setup(tiny, testConfig(13), "p", nil); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("tiny device err = %v, want ErrTooSmall", err)
	}
}

func TestOpenRejectsUninitializedDevice(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 4096)
	if _, err := Open(dev, testConfig(14)); err == nil {
		t.Fatal("Open on blank device succeeded")
	}
}

func TestAllNonPublicVolumesLookAlike(t *testing.T) {
	// After setup, every non-public volume (hidden or dummy) must have the
	// same mapped-block footprint: exactly one block at vblock 0.
	sys, _ := newSystem(t, 15, []string{"hidden-pw"})
	for id := 2; id <= sys.NumVolumes(); id++ {
		mapped, err := sys.Pool().MappedBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		if mapped != 1 {
			t.Fatalf("volume %d has %d mapped blocks after setup, want 1", id, mapped)
		}
		vbs, err := sys.Pool().MappedVBlocks(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(vbs) != 1 || vbs[0] != 0 {
			t.Fatalf("volume %d mapped vblocks = %v, want [0]", id, vbs)
		}
	}
}

func TestPolicyFireRateTracksStoredRand(t *testing.T) {
	// Trigger rate: E[stored_rand mod x]/(2x) ~ 0.245 for x=50; the
	// round-to-zero dummy sizes suppress a further P(Exp(1) < 0.5) ~ 0.393
	// of those, leaving an effective fire rate near 0.245 * 0.607 ~ 0.149.
	policy := NewStoredRandPolicy(PolicyConfig{
		X:            50,
		Lambda:       1,
		NumVolumes:   8,
		PublicID:     1,
		RefreshEvery: 100,
		Src:          prng.NewSource(16),
	})
	const trials = 200000
	fires := 0
	for i := 0; i < trials; i++ {
		if _, _, fire := policy.OnProvision(1); fire {
			fires++
		}
	}
	rate := float64(fires) / trials
	want := 0.245 * (1 - (1 - math.Exp(-0.5)))
	if math.Abs(rate-want) > 0.02 {
		t.Fatalf("fire rate %.3f, want about %.3f", rate, want)
	}
}

func TestPolicyMeanDummyBlocksPerDecision(t *testing.T) {
	// The paper's calibration: with lambda=1 a dummy write allocates one
	// block on average, so blocks-per-decision ~ triggerRate * E[round] ~
	// 0.245 * 0.96 ~ 0.235.
	policy := NewStoredRandPolicy(PolicyConfig{
		X: 50, Lambda: 1, NumVolumes: 8, PublicID: 1,
		RefreshEvery: 100,
		Src:          prng.NewSource(26),
	})
	const trials = 300000
	for i := 0; i < trials; i++ {
		policy.OnProvision(1)
	}
	decisions, _, blocks := policy.Stats()
	perDecision := float64(blocks) / float64(decisions)
	if math.Abs(perDecision-0.235) > 0.03 {
		t.Fatalf("blocks per decision %.3f, want about 0.235", perDecision)
	}
}

func TestPolicyIgnoresNonPublicProvisioning(t *testing.T) {
	policy := NewStoredRandPolicy(PolicyConfig{
		X: 50, Lambda: 1, NumVolumes: 8, PublicID: 1,
		Src: prng.NewSource(17),
	})
	for i := 0; i < 1000; i++ {
		if _, _, fire := policy.OnProvision(2 + i%6); fire {
			t.Fatal("policy fired on non-public provisioning")
		}
	}
	if d, f, b := policy.Stats(); d != 0 || f != 0 || b != 0 {
		t.Fatalf("stats = %d/%d/%d for non-public traffic", d, f, b)
	}
}

func TestPolicyTargetsValidDummyVolumes(t *testing.T) {
	policy := NewStoredRandPolicy(PolicyConfig{
		X: 50, Lambda: 1, NumVolumes: 8, PublicID: 1,
		RefreshEvery: 10,
		Src:          prng.NewSource(18),
	})
	for i := 0; i < 50000; i++ {
		target, count, fire := policy.OnProvision(1)
		if !fire {
			continue
		}
		if target < 2 || target > 8 {
			t.Fatalf("dummy target %d out of [2,8]", target)
		}
		if count < 1 {
			t.Fatalf("dummy count %d < 1", count)
		}
	}
}

func TestPolicyDummySizeDistribution(t *testing.T) {
	// Fired sizes follow round(Exp(1)) conditioned on >= 1: mean
	// E[round]/P(round>=1) ~ 0.96/0.607 ~ 1.58, and large sizes occur but
	// are rare.
	policy := NewStoredRandPolicy(PolicyConfig{
		X: 50, Lambda: 1, NumVolumes: 4, PublicID: 1,
		RefreshEvery: 50,
		Src:          prng.NewSource(19),
	})
	var sum, n, over4 int
	for i := 0; i < 400000 && n < 20000; i++ {
		_, count, fire := policy.OnProvision(1)
		if !fire {
			continue
		}
		sum += count
		n++
		if count > 4 {
			over4++
		}
	}
	if n < 1000 {
		t.Fatalf("only %d dummy writes fired", n)
	}
	mean := float64(sum) / float64(n)
	want := 0.96 / (1 - (1 - math.Exp(-0.5)))
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("mean dummy size %.3f, want about %.3f", mean, want)
	}
	frac := float64(over4) / float64(n)
	if frac == 0 || frac > 0.10 {
		t.Fatalf("P(size>4) = %.4f, want small but nonzero", frac)
	}
}

func TestHiddenIndexCollisionResolvedBySaltRetry(t *testing.T) {
	// With 2 volumes there is only one hidden slot; two hidden passwords
	// must always collide and Setup must fail explicitly.
	dev := storage.NewMemDevice(blockSize, 4096)
	cfg := testConfig(20)
	cfg.NumVolumes = 2
	_, err := Setup(dev, cfg, "decoy", []string{"h1", "h2"})
	if !errors.Is(err, ErrIndexCollision) && !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want collision or config error", err)
	}
	// With many volumes and two passwords, salt retry must succeed.
	dev2 := storage.NewMemDevice(blockSize, 4096)
	cfg2 := testConfig(21)
	cfg2.NumVolumes = 6
	sys, err := Setup(dev2, cfg2, "decoy", []string{"h1", "h2"})
	if err != nil {
		t.Fatalf("Setup with 2 hidden: %v", err)
	}
	a, okA := sys.VerifyHidden("h1")
	b, okB := sys.VerifyHidden("h2")
	if !okA || !okB || a == b {
		t.Fatalf("hidden ids = %d,%d (ok=%v,%v)", a, b, okA, okB)
	}
}

func TestModeString(t *testing.T) {
	if ModePublic.String() != "public" || ModeHidden.String() != "hidden" {
		t.Fatal("mode strings")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}
