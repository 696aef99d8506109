package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
)

// Soak test: a long random sequence of realistic operations — public and
// hidden writes, file removals, GC passes, commits, reboots (reopen from
// disk) — with a shadow model of every file's content. Catches interaction
// bugs no focused test would (dummy writes landing during GC, reopen after
// partial workloads, verifier survival across epochs).
func TestSoakRandomOperations(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	const (
		seed   = 0x50414b
		rounds = 400
	)
	src := prng.NewSource(seed)
	sys, dev := newSystem(t, seed, []string{"hidden"})
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
	hiddenID := hid.ID()

	type world struct {
		fs     *minifs.FS
		shadow map[string][]byte
	}
	worlds := map[string]*world{
		"pub": {fs: pubFS, shadow: map[string][]byte{}},
		"hid": {fs: hidFS, shadow: map[string][]byte{}},
	}

	reopen := func() {
		if err := sys.Commit(); err != nil {
			t.Fatal(err)
		}
		sys2, err := Open(dev, Config{
			KDFIter: 16,
			Entropy: prng.NewSeededEntropy(src.Uint64()),
			Seed:    src.Uint64(),
			SeedSet: true,
		})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		sys = sys2
		p, err := sys.OpenPublic("decoy-pass")
		if err != nil {
			t.Fatal(err)
		}
		if worlds["pub"].fs, err = p.Mount(); err != nil {
			t.Fatalf("public remount: %v", err)
		}
		h, err := sys.OpenHidden("hidden")
		if err != nil {
			t.Fatalf("hidden reopen: %v", err)
		}
		if worlds["hid"].fs, err = h.Mount(); err != nil {
			t.Fatalf("hidden remount: %v", err)
		}
	}

	fileCounter := 0
	for round := 0; round < rounds; round++ {
		wName := "pub"
		if src.Float64() < 0.35 {
			wName = "hid"
		}
		w := worlds[wName]
		switch op := src.Intn(10); {
		case op < 5: // write a new or existing file
			var name string
			if len(w.shadow) > 0 && src.Float64() < 0.4 {
				name = anyKey(w.shadow, src)
			} else {
				fileCounter++
				name = fmt.Sprintf("%s-%04d", wName, fileCounter)
			}
			size := (1 + src.Intn(12)) * blockSize / 2
			data := make([]byte, size)
			if _, err := src.Read(data); err != nil {
				t.Fatal(err)
			}
			// An existing file is replaced whole: removed, then created
			// again.
			if _, ok := w.shadow[name]; ok {
				if err := w.fs.Remove(name); err != nil {
					t.Fatalf("round %d replace: %v", round, err)
				}
				delete(w.shadow, name)
			}
			f, err := w.fs.Create(name)
			if err != nil {
				if errors.Is(err, minifs.ErrNoSpace) {
					continue
				}
				t.Fatalf("round %d create: %v", round, err)
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatalf("round %d write: %v", round, err)
			}
			w.shadow[name] = data
		case op < 7: // remove
			if len(w.shadow) == 0 {
				continue
			}
			name := anyKey(w.shadow, src)
			if err := w.fs.Remove(name); err != nil {
				t.Fatalf("round %d remove: %v", round, err)
			}
			delete(w.shadow, name)
		case op == 7: // sync + commit
			if err := w.fs.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Commit(); err != nil {
				t.Fatal(err)
			}
		case op == 8 && round%50 == 25: // GC (hidden mode rule: protect hidden)
			for _, w2 := range worlds {
				if err := w2.fs.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.GC([]int{hiddenID}, prng.NewSource(src.Uint64())); err != nil {
				t.Fatalf("round %d gc: %v", round, err)
			}
		case op == 9 && round%100 == 75: // reboot
			for _, w2 := range worlds {
				if err := w2.fs.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			reopen()
		}
	}

	// Final verification: every shadowed file reads back exactly, and all
	// structural invariants hold.
	for _, w2 := range worlds {
		if err := w2.fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w2.fs.CheckIntegrity(); err != nil {
			t.Fatalf("fs integrity after soak: %v", err)
		}
	}
	if err := sys.Pool().CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity after soak: %v", err)
	}
	reopen()
	if err := sys.Pool().CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity after reopen: %v", err)
	}
	for wName, w := range worlds {
		if got, want := len(w.fs.List()), len(w.shadow); got != want {
			t.Fatalf("%s: %d files on disk, %d in shadow", wName, got, want)
		}
		for name, want := range w.shadow {
			f, err := w.fs.Open(name)
			if err != nil {
				t.Fatalf("%s/%s: %v", wName, name, err)
			}
			got := make([]byte, len(want))
			if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: content mismatch after soak", wName, name)
			}
		}
	}
}

func anyKey(m map[string][]byte, src *prng.Source) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Map iteration order is random; sort-free deterministic pick needs a
	// stable order. Keys are unique names, so pick by index after a simple
	// insertion sort.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[src.Intn(len(keys))]
}
