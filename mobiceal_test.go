package mobiceal_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mobiceal"
	"mobiceal/internal/android"
	"mobiceal/internal/prng"
)

func testConfig(seed uint64) mobiceal.Config {
	return mobiceal.Config{
		NumVolumes: 6,
		KDFIter:    8,
		Entropy:    prng.NewSeededEntropy(seed),
		Seed:       seed,
		SeedSet:    true,
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	dev := mobiceal.NewMemDevice(4096, 4096)
	sys, err := mobiceal.Setup(dev, testConfig(1), "decoy", []string{"hidden"})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, deniable world")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden")
	if err != nil {
		t.Fatal(err)
	}
	if hid.Mode() != mobiceal.ModeHidden {
		t.Fatalf("mode = %v", hid.Mode())
	}
	if _, err := sys.OpenHidden("wrong"); !errors.Is(err, mobiceal.ErrBadPassword) {
		t.Fatalf("err = %v, want ErrBadPassword", err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}

	sys2, err := mobiceal.Open(dev, testConfig(2))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pub2, err := sys2.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := pub2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, got) {
		t.Fatal("facade roundtrip mismatch")
	}
}

func TestFacadeSnapshotAnalysis(t *testing.T) {
	dev := mobiceal.NewMemDevice(4096, 4096)
	sys, err := mobiceal.Setup(dev, testConfig(3), "decoy", []string{"hidden"})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden")
	if err != nil {
		t.Fatal(err)
	}
	hidFS, err := hid.Format()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	before := dev.Snapshot()

	data := make([]byte, 40*4096)
	hf, err := hidFS.Create("secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := hidFS.Sync(); err != nil {
		t.Fatal(err)
	}
	pf, err := fs.Create("cover")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.WriteAt(make([]byte, 150*4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	after := dev.Snapshot()

	report, err := mobiceal.AnalyzeSnapshots(dev, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unaccountable) != 0 {
		t.Fatalf("%d unaccountable changes", len(report.Unaccountable))
	}
	if report.NonRandomChanged != 0 {
		t.Fatalf("%d non-random changes", report.NonRandomChanged)
	}
	if report.Changed == 0 {
		t.Fatal("no changes recorded at all")
	}
}

func TestFacadePhone(t *testing.T) {
	dev := mobiceal.NewMemDevice(4096, 4096)
	phone := mobiceal.NewPhone(dev, testConfig(4))
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		t.Fatal(err)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatal(err)
	}
	if src := phone.Mounts()[android.PathData]; src != android.SrcHidden {
		t.Fatalf("/data mounted from %q after the switch, want %q", src, android.SrcHidden)
	}
}

func TestFacadeImageFiles(t *testing.T) {
	path := t.TempDir() + "/disk.img"
	dev, err := mobiceal.CreateImage(path, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mobiceal.Setup(dev, testConfig(5), "decoy", nil); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	dev2, err := mobiceal.OpenImage(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dev2.Close(); err != nil {
			t.Error(err)
		}
	}()
	sys, err := mobiceal.Open(dev2, testConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumVolumes() != 6 {
		t.Fatalf("NumVolumes = %d", sys.NumVolumes())
	}
}
