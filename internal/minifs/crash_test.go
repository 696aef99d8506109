package minifs

import (
	"bytes"
	"fmt"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// fsState is the durable state a crash-recovered mount must land on: the
// exact file set with exact contents.
type fsState map[string][]byte

// writeFile creates name with the given content.
func writeFile(t *testing.T, fs *FS, name string, content []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("Create %s: %v", name, err)
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatalf("WriteAt %s: %v", name, err)
	}
}

// matchState mounts img and checks the file system is intact and equal to
// exactly one of the candidate states, returning which.
func matchState(t *testing.T, label string, img storage.Device, states []fsState) int {
	t.Helper()
	fs, err := Mount(img)
	if err != nil {
		t.Fatalf("%s: Mount: %v", label, err)
	}
	if err := fs.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity: %v", label, err)
	}
	names := fs.List()
outer:
	for si, want := range states {
		if len(names) != len(want) {
			continue
		}
		for _, name := range names {
			wantContent, ok := want[name]
			if !ok {
				continue outer
			}
			f, err := fs.Open(name)
			if err != nil {
				t.Fatalf("%s: Open %s: %v", label, name, err)
			}
			got := make([]byte, f.Size())
			if f.Size() > 0 {
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("%s: ReadAt %s: %v", label, name, err)
				}
			}
			if !bytes.Equal(got, wantContent) {
				continue outer
			}
		}
		return si
	}
	t.Fatalf("%s: recovered state %v matches no committed Sync", label, names)
	return -1
}

// TestMinifsCrashEnumeration replays a create/remove workload crashing at
// every persisted device write — including torn-block variants — and
// requires every recovered mount to expose exactly one committed Sync:
// files fully present with their contents, or cleanly absent; never a
// half-applied directory, inode table or bitmap.
func TestMinifsCrashEnumeration(t *testing.T) {
	crash := storage.NewCrashDevice(storage.NewMemDevice(512, 2048))
	fs, err := Format(crash, 64)
	if err != nil {
		t.Fatal(err)
	}
	contentA := bytes.Repeat([]byte{0xAA}, 3000)
	writeFile(t, fs, "alpha", contentA)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := crash.StartRecording(); err != nil {
		t.Fatal(err)
	}

	// Sync 1: a new multi-block file (exercises the indirect pointers with
	// 512-byte blocks) next to the existing one.
	contentB := bytes.Repeat([]byte{0xBB}, 9000)
	writeFile(t, fs, "bravo", contentB)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync 2: remove the first file, add a third, and extend the second —
	// extending dirties its committed indirect pointer block, which Sync
	// must shadow-page rather than overwrite in place.
	if err := fs.Remove("alpha"); err != nil {
		t.Fatal(err)
	}
	contentC := bytes.Repeat([]byte{0xCC}, 600)
	writeFile(t, fs, "charlie", contentC)
	grown := bytes.Repeat([]byte{0xBE}, 4000)
	fb, err := fs.Open("bravo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt(grown, int64(len(contentB))); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	contentB2 := append(append([]byte(nil), contentB...), grown...)

	states := []fsState{
		{"alpha": contentA},
		{"alpha": contentA, "bravo": contentB},
		{"bravo": contentB2, "charlie": contentC},
	}
	total := crash.PersistedWrites()
	if total < 10 {
		t.Fatalf("only %d persisted writes; workload too small", total)
	}
	seen := make(map[int]bool)
	for n := 0; n <= total; n++ {
		img, err := crash.CrashImage(n)
		if err != nil {
			t.Fatal(err)
		}
		seen[matchState(t, fmt.Sprintf("cut@%d", n), img, states)] = true
		if n == total {
			continue
		}
		torn, err := crash.CrashImageTorn(n, 256)
		if err != nil {
			t.Fatal(err)
		}
		matchState(t, fmt.Sprintf("torn@%d", n), torn, states)
	}
	// The sweep must actually traverse all three committed states.
	for si := range states {
		if !seen[si] {
			t.Fatalf("no crash point recovered to committed state %d", si)
		}
	}
}

// TestMinifsPowerCutSubset cuts power with unsynced writes in flight — a
// random subset of them persisting, some torn — and verifies the remount
// sees exactly the last Sync: new files cleanly absent, old files intact.
func TestMinifsPowerCutSubset(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		crash := storage.NewCrashDevice(storage.NewMemDevice(512, 2048))
		fs, err := Format(crash, 64)
		if err != nil {
			t.Fatal(err)
		}
		contentA := bytes.Repeat([]byte{0x11}, 4000)
		writeFile(t, fs, "kept", contentA)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		// Unsynced work: a new file and its data, all still volatile or,
		// after the cut, partially and incoherently on stable storage.
		writeFile(t, fs, "lost", bytes.Repeat([]byte{0x22}, 6000))
		if err := crash.PowerCut(prng.NewSource(seed)); err != nil {
			t.Fatal(err)
		}
		crash.Restart()

		re, err := Mount(crash)
		if err != nil {
			t.Fatalf("seed %d: Mount after power cut: %v", seed, err)
		}
		if err := re.CheckIntegrity(); err != nil {
			t.Fatalf("seed %d: integrity: %v", seed, err)
		}
		names := re.List()
		if len(names) != 1 || names[0] != "kept" {
			t.Fatalf("seed %d: files after power cut = %v, want [kept]", seed, names)
		}
		f, err := re.Open("kept")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(contentA))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contentA) {
			t.Fatalf("seed %d: synced file damaged by power cut", seed)
		}
	}
}

// TestMinifsSyncAtomicVsDropAll drops every in-flight write at the exact
// moment Sync would have needed them and verifies strict rollback, then
// confirms the same workload re-run to completion is fully durable.
func TestMinifsSyncAtomicVsDropAll(t *testing.T) {
	crash := storage.NewCrashDevice(storage.NewMemDevice(512, 1024))
	fs, err := Format(crash, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "doomed", bytes.Repeat([]byte{0x33}, 2000))
	crash.PowerCutDropAll()
	crash.Restart()
	re, err := Mount(crash)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.List(); len(got) != 0 {
		t.Fatalf("files after drop-all cut = %v, want none", got)
	}
	// Re-run to completion on the recovered FS: everything sticks.
	content := bytes.Repeat([]byte{0x44}, 2000)
	writeFile(t, re, "durable", content)
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	crash.PowerCutDropAll()
	crash.Restart()
	re2, err := Mount(crash)
	if err != nil {
		t.Fatal(err)
	}
	f, err := re2.Open("durable")
	if err != nil {
		t.Fatalf("synced file lost: %v", err)
	}
	got := make([]byte, len(content))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("synced content damaged")
	}
}

// TestMinifsSyncRetryAfterFault injects a device fault at every write index
// inside Sync, retries after the fault clears, and then crash-enumerates
// the whole stream: the retried commit must never reuse the journal in a
// way that leaves a previously sealed, half-applied transaction
// unrepairable (the replayPending protocol).
func TestMinifsSyncRetryAfterFault(t *testing.T) {
	contentA := bytes.Repeat([]byte{0x51}, 2500)
	contentB := bytes.Repeat([]byte{0x62}, 1400)
	for n := 0; ; n++ {
		crash := storage.NewCrashDevice(storage.NewMemDevice(512, 1024))
		fd := storage.NewFlakyDevice(crash, storage.FlakyOptions{})
		fs, err := Format(fd, 32)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, fs, "alpha", contentA)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := crash.StartRecording(); err != nil {
			t.Fatal(err)
		}
		writeFile(t, fs, "bravo", contentB)
		fd.FailAfter(storage.OpWrite, n, nil)
		syncErr := fs.Sync()
		fd.Disarm()
		if syncErr != nil {
			if err := fs.Sync(); err != nil {
				t.Fatalf("fault@%d: retry Sync: %v", n, err)
			}
		}
		states := []fsState{
			{"alpha": contentA},
			{"alpha": contentA, "bravo": contentB},
		}
		total := crash.PersistedWrites()
		for i := 0; i <= total; i++ {
			img, err := crash.CrashImage(i)
			if err != nil {
				t.Fatal(err)
			}
			matchState(t, fmt.Sprintf("fault@%d cut@%d", n, i), img, states)
		}
		// The final state after a successful (possibly retried) Sync must
		// be the new one.
		final, err := crash.CrashImage(total)
		if err != nil {
			t.Fatal(err)
		}
		if matchState(t, fmt.Sprintf("fault@%d final", n), final, states) != 1 {
			t.Fatalf("fault@%d: completed Sync did not land the new state", n)
		}
		if syncErr == nil {
			// The fault budget exceeded the whole Sync: every later index
			// behaves identically, so the sweep is complete.
			break
		}
	}
}
