package mobiceal_test

import (
	"testing"
	"time"

	"mobiceal"
	"mobiceal/internal/android"
	"mobiceal/internal/core"
	"mobiceal/internal/experiments"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

// End-to-end integration across every layer: a phone lifecycle driven
// through Vold, snapshots taken around a hidden-mode session, the adversary
// analyzing them, and structural integrity verified — the complete paper
// scenario in one test.
func TestEndToEndPhoneSessionUnderSurveillance(t *testing.T) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := storage.NewMemDevice(4096, 8192)
	phone := android.NewMobiCealPhone(dev, core.Config{
		NumVolumes: 8,
		KDFIter:    8,
		Entropy:    prng.NewSeededEntropy(900),
		Seed:       900,
		SeedSet:    true,
	}, meter)
	vold := android.NewVold(phone)

	// Provision through the vdc surface, boot, bring up the framework.
	if resp, err := vold.Command("cryptfs pde wipe decoy 8 hidden"); err != nil || resp != "200 0 OK" {
		t.Fatalf("wipe: (%q, %v)", resp, err)
	}
	if resp, err := vold.Command("cryptfs checkpw decoy"); err != nil || resp != "200 0 OK" {
		t.Fatalf("checkpw: (%q, %v)", resp, err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint 1: the device is imaged.
	if err := phone.System().Commit(); err != nil {
		t.Fatal(err)
	}
	snap1 := dev.Snapshot()

	// Hidden session via the screen lock, under the 10-second budget.
	sw := vclock.NewStopwatch(&clock)
	if resp, err := vold.Command("cryptfs pde switch hidden"); err != nil || resp != "200 0 OK" {
		t.Fatalf("switch: (%q, %v)", resp, err)
	}
	if sw.Elapsed() >= 10*time.Second {
		t.Fatalf("switch took %v", sw.Elapsed())
	}
	hidFS := phone.DataFS()
	f, err := hidFS.Create("evidence")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 25*4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := hidFS.Sync(); err != nil {
		t.Fatal(err)
	}

	// Exit (reboot), then ordinary public use.
	if err := phone.ExitHidden("decoy"); err != nil {
		t.Fatal(err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	pubFS := phone.DataFS()
	g, err := pubFS.Create("holiday-photos")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(make([]byte, 120*4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := pubFS.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := phone.System().Commit(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint 2: imaged again; owner discloses the decoy password.
	snap2 := dev.Snapshot()
	report, err := mobiceal.AnalyzeSnapshots(dev, snap1, snap2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unaccountable) != 0 {
		t.Fatalf("%d unaccountable changes across the session", len(report.Unaccountable))
	}
	if report.NonRandomChanged != 0 {
		t.Fatalf("%d plaintext-looking changes", report.NonRandomChanged)
	}
	if report.NonPublicChanged == 0 {
		t.Fatal("hidden session left no (deniable) trace at all — snapshots broken?")
	}

	// Structure stays sound, and the hidden data is still there.
	if err := phone.System().Pool().CheckIntegrity(); err != nil {
		t.Fatalf("pool integrity: %v", err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatal(err)
	}
	names := phone.DataFS().List()
	if len(names) != 1 || names[0] != "evidence" {
		t.Fatalf("hidden volume lists %v", names)
	}
}

func TestNewStackRejectsUnknownName(t *testing.T) {
	if _, err := experiments.NewStack("no-such-stack", experiments.Fig4Config{}); err == nil {
		t.Fatal("unknown stack accepted")
	}
}
