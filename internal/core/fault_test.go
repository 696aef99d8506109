package core

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

func TestSetupPropagatesDeviceFaults(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 4096)
	faulty := storage.NewFlakyDevice(mem, storage.FlakyOptions{})
	faulty.FailAfter(storage.OpWrite, 2, nil)
	if _, err := Setup(faulty, testConfig(30), "decoy", nil); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Setup err = %v, want ErrInjected", err)
	}
}

func TestSystemSurvivesTransientWriteFault(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 4096)
	faulty := storage.NewFlakyDevice(mem, storage.FlakyOptions{})
	sys, err := Setup(faulty, testConfig(31), "decoy", []string{"hidden"})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := vol.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("before fault"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Device fails mid-workload.
	faulty.FailAfter(storage.OpWrite, 0, nil)
	big := make([]byte, 50*blockSize)
	if _, err := f.WriteAt(big, blockSize); err == nil {
		t.Fatal("write during device failure succeeded")
	}

	// Device recovers: old data intact, new writes work.
	faulty.Disarm()
	got := make([]byte, len("before fault"))
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("before fault")) {
		t.Fatal("pre-fault data corrupted")
	}
	if _, err := f.WriteAt([]byte("after recovery"), 0); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	// Hidden volume unaffected throughout.
	if _, ok := sys.VerifyHidden("hidden"); !ok {
		t.Fatal("hidden volume lost after fault cycle")
	}
}

func TestConcurrentPublicAndHiddenUse(t *testing.T) {
	// The paper's modes are exclusive on a phone, but the library must
	// still be race-free when both volumes are driven concurrently (e.g.
	// by the experiment harness). Run with -race for full value.
	sys, _ := newSystem(t, 32, []string{"hidden"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
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
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		f, err := pubFS.Create("pub")
		if err != nil {
			errCh <- err
			return
		}
		data := make([]byte, 30*blockSize)
		for i := 0; i < 5; i++ {
			if _, err := f.WriteAt(data, int64(i)*int64(len(data))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		f, err := hidFS.Create("hid")
		if err != nil {
			errCh <- err
			return
		}
		data := make([]byte, 20*blockSize)
		for i := 0; i < 5; i++ {
			if _, err := f.WriteAt(data, int64(i)*int64(len(data))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	// Both file systems intact.
	if names := pubFS.List(); len(names) != 1 || names[0] != "pub" {
		t.Fatalf("public names = %v", names)
	}
	if names := hidFS.List(); len(names) != 1 || names[0] != "hid" {
		t.Fatalf("hidden names = %v", names)
	}
}

// Property: no third password — not decoy, not hidden — opens anything,
// across many random candidate passwords.
func TestPropertyUnrelatedPasswordsOpenNothing(t *testing.T) {
	sys, _ := newSystem(t, 33, []string{"hidden-A", "hidden-B"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Format(); err != nil {
		t.Fatal(err)
	}
	src := prng.NewSource(34)
	for i := 0; i < 50; i++ {
		pwd := make([]byte, 8+src.Intn(8))
		for j := range pwd {
			pwd[j] = byte('!' + src.Intn(90))
		}
		candidate := string(pwd)
		if candidate == "decoy-pass" || candidate == "hidden-A" || candidate == "hidden-B" {
			continue
		}
		if _, ok := sys.VerifyHidden(candidate); ok {
			t.Fatalf("random password %q verified as hidden", candidate)
		}
		if _, err := sys.OpenHidden(candidate); !errors.Is(err, ErrBadPassword) {
			t.Fatalf("OpenHidden(%q) err = %v", candidate, err)
		}
		wrongPub, err := sys.OpenPublic(candidate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wrongPub.Mount(); err == nil {
			t.Fatalf("random password %q mounted the public volume", candidate)
		}
	}
}

func TestGCWithUnprotectedHiddenVolumeLosesData(t *testing.T) {
	// Negative-space test documenting the paper's requirement that GC run
	// in hidden mode: if the hidden volume is NOT protected, GC may
	// reclaim its blocks and destroy data. This is the failure mode the
	// design rule exists to prevent.
	sys, _ := newSystem(t, 35, []string{"hidden"})
	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pubFS.Create("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.WriteAt(make([]byte, 400*blockSize), 0); err != nil {
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
	hf, err := hidFS.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.WriteAt(make([]byte, 30*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := hidFS.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := sys.Pool().MappedBlocks(hid.ID())
	if err != nil {
		t.Fatal(err)
	}
	// GC WITHOUT protecting the hidden volume.
	if _, err := sys.GC(nil, prng.NewSource(36)); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Pool().MappedBlocks(hid.ID())
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("unprotected GC reclaimed nothing from the hidden volume (%d -> %d); "+
			"the protection requirement would be vacuous", before, after)
	}
}
