package android

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mobiceal/internal/core"
	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

func formatHelper(dev storage.Device) (*minifs.FS, error) {
	return minifs.Format(dev, 256)
}

const (
	blockSize    = 4096
	nominalBytes = 13 << 30 // the Nexus 4 userdata partition
)

func newMobiCealPhone(t testing.TB, seed uint64) (*MobiCealPhone, *vclock.Clock) {
	t.Helper()
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := storage.NewMemDevice(blockSize, 4096)
	cfg := core.Config{
		NumVolumes: 8,
		KDFIter:    8,
		Entropy:    prng.NewSeededEntropy(seed),
		Seed:       seed,
		SeedSet:    true,
	}
	return NewMobiCealPhone(dev, cfg, meter, nominalBytes), &clock
}

func TestMobiCealFullLifecycle(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 1)
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		t.Fatalf("Initialize: %v", err)
	}
	if phone.mode != 0 {
		t.Fatal("phone booted right after initialize (should be at password prompt)")
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if phone.mode != core.ModePublic {
		t.Fatalf("mode = %v after boot", phone.mode)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	// Store something public.
	fs := phone.DataFS()
	if fs == nil {
		t.Fatal("no /data fs")
	}
	if _, err := fs.Create("public-note"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Fast switch.
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatalf("SwitchToHidden: %v", err)
	}
	if phone.mode != core.ModeHidden {
		t.Fatalf("mode = %v after switch", phone.mode)
	}
	hidFS := phone.DataFS()
	if _, err := hidFS.Create("secret-note"); err != nil {
		t.Fatal(err)
	}
	if err := hidFS.Sync(); err != nil {
		t.Fatal(err)
	}

	// Exit requires reboot; back in public mode with public data intact.
	if err := phone.ExitHidden("decoy"); err != nil {
		t.Fatalf("ExitHidden: %v", err)
	}
	if phone.mode != core.ModePublic {
		t.Fatalf("mode = %v after exit", phone.mode)
	}
	names := phone.DataFS().List()
	if len(names) != 1 || names[0] != "public-note" {
		t.Fatalf("public /data lists %v", names)
	}

	// Hidden data survives and is reachable again.
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatal(err)
	}
	names = phone.DataFS().List()
	if len(names) != 1 || names[0] != "secret-note" {
		t.Fatalf("hidden /data lists %v", names)
	}
}

func TestSideChannelIsolationMounts(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 2)
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		t.Fatal(err)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	m := phone.Mounts()
	if m[PathData] != SrcPublic || m[PathCache] != SrcCachePart || m[PathDevlog] != SrcLogPart {
		t.Fatalf("public mounts = %v", m)
	}
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatal(err)
	}
	m = phone.Mounts()
	// Sec. IV-D: hidden mode must put tmpfs over cache and log paths and
	// the hidden volume at /data; the public volume must be gone.
	if m[PathData] != SrcHidden {
		t.Fatalf("/data = %q in hidden mode", m[PathData])
	}
	if m[PathCache] != SrcTmpfs || m[PathDevlog] != SrcTmpfs {
		t.Fatalf("leak paths not on tmpfs: %v", m)
	}
	for _, src := range m {
		if src == SrcPublic {
			t.Fatal("public volume still mounted in hidden mode")
		}
	}
}

func TestSwitchRejectsWrongPasswordWithoutSideEffects(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 3)
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		t.Fatal(err)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	before := phone.Mounts()
	err := phone.SwitchToHidden("wrong-password")
	if !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v, want ErrBadPassword", err)
	}
	if phone.mode != core.ModePublic || !phone.frameworkUp {
		t.Fatal("failed switch disturbed phone state")
	}
	after := phone.Mounts()
	if len(after) != len(before) {
		t.Fatalf("mount table changed on failed switch: %v -> %v", before, after)
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("mount %s changed on failed switch", k)
		}
	}
}

func TestSwitchGuards(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 4)
	if err := phone.SwitchToHidden("x"); !errors.Is(err, ErrNotBooted) {
		t.Fatalf("unbooted switch err = %v", err)
	}
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		t.Fatal(err)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
	// Framework down: the screen-lock entrance is unavailable.
	if err := phone.SwitchToHidden("hidden"); !errors.Is(err, ErrNotBooted) {
		t.Fatalf("framework-down switch err = %v", err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatal(err)
	}
	// One-way: switching again from hidden mode is refused.
	if err := phone.SwitchToHidden("hidden"); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("double switch err = %v", err)
	}
	if err := phone.ExitHidden("decoy"); err != nil {
		t.Fatal(err)
	}
	if err := phone.ExitHidden("decoy"); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("double exit err = %v", err)
	}
}

func TestBootRejectsWrongPassword(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 5)
	if err := phone.Initialize("decoy", nil); err != nil {
		t.Fatal(err)
	}
	if err := phone.Boot("bad"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v, want ErrBadPassword", err)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
}

func TestTimingShape(t *testing.T) {
	// The Table II shape: switch-in well under 10 virtual seconds, exit
	// (reboot) around a minute, initialization a couple of minutes.
	phone, clock := newMobiCealPhone(t, 6)
	sw := vclock.NewStopwatch(clock)
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		t.Fatal(err)
	}
	initTime := sw.Elapsed()
	if initTime > 5*time.Minute || initTime < 30*time.Second {
		t.Fatalf("init time %v, want minutes-scale (paper: 2m16s)", initTime)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	sw = vclock.NewStopwatch(clock)
	if err := phone.SwitchToHidden("hidden"); err != nil {
		t.Fatal(err)
	}
	switchTime := sw.Elapsed()
	if switchTime >= 10*time.Second {
		t.Fatalf("switch time %v, want < 10s (paper: 9.27s)", switchTime)
	}
	sw = vclock.NewStopwatch(clock)
	if err := phone.ExitHidden("decoy"); err != nil {
		t.Fatal(err)
	}
	exitTime := sw.Elapsed()
	if exitTime < 30*time.Second || exitTime > 2*time.Minute {
		t.Fatalf("exit time %v, want around a minute (paper: 63s)", exitTime)
	}
}

func TestNexus6PFasterLifecycle(t *testing.T) {
	// The availability-test device (Sec. V): newer hardware shrinks every
	// user-visible timing with no code changes.
	lifecycle := func(profile vclock.Profile) (initT, switchT, exitT time.Duration) {
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, profile)
		dev := storage.NewMemDevice(blockSize, 4096)
		phone := NewMobiCealPhone(dev, core.Config{
			NumVolumes: 8,
			KDFIter:    8,
			Entropy:    prng.NewSeededEntropy(77),
			Seed:       77,
			SeedSet:    true,
		}, meter, nominalBytes)
		sw := vclock.NewStopwatch(&clock)
		if err := phone.Initialize("d", []string{"h"}); err != nil {
			t.Fatal(err)
		}
		initT = sw.Elapsed()
		if err := phone.Boot("d"); err != nil {
			t.Fatal(err)
		}
		if err := phone.StartFramework(); err != nil {
			t.Fatal(err)
		}
		sw = vclock.NewStopwatch(&clock)
		if err := phone.SwitchToHidden("h"); err != nil {
			t.Fatal(err)
		}
		switchT = sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.ExitHidden("d"); err != nil {
			t.Fatal(err)
		}
		exitT = sw.Elapsed()
		return initT, switchT, exitT
	}
	n4Init, n4Switch, n4Exit := lifecycle(vclock.Nexus4())
	p6Init, p6Switch, p6Exit := lifecycle(vclock.Nexus6P())
	if !(p6Init < n4Init && p6Switch < n4Switch && p6Exit < n4Exit) {
		t.Fatalf("6P not uniformly faster: init %v/%v switch %v/%v exit %v/%v",
			p6Init, n4Init, p6Switch, n4Switch, p6Exit, n4Exit)
	}
	if p6Switch >= 10*time.Second {
		t.Fatalf("6P switch %v, want < 10s", p6Switch)
	}
}

func TestVoldCommands(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 7)
	vold := NewVold(phone)
	resp, err := vold.Command("cryptfs pde wipe decoy 8 hidden1")
	if err != nil || resp != "200 0 OK" {
		t.Fatalf("wipe: (%q, %v)", resp, err)
	}
	resp, err = vold.Command("cryptfs checkpw decoy")
	if err != nil || resp != "200 0 OK" {
		t.Fatalf("checkpw: (%q, %v)", resp, err)
	}
	if err := phone.StartFramework(); err != nil {
		t.Fatal(err)
	}
	// Wrong password: the paper's switching function returns -1.
	resp, err = vold.Command("cryptfs pde switch nope")
	if err != nil || resp != "-1" {
		t.Fatalf("bad switch: (%q, %v)", resp, err)
	}
	resp, err = vold.Command("cryptfs pde switch hidden1")
	if err != nil || resp != "200 0 OK" {
		t.Fatalf("switch: (%q, %v)", resp, err)
	}
	if phone.mode != core.ModeHidden {
		t.Fatal("vold switch did not enter hidden mode")
	}
	if _, err := vold.Command("volume list"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := vold.Command("cryptfs pde wipe"); err == nil {
		t.Fatal("short wipe accepted")
	}
}

func TestVoldVerifyAndGC(t *testing.T) {
	phone, _ := newMobiCealPhone(t, 9)
	vold := NewVold(phone)
	if _, err := vold.Command("cryptfs pde wipe decoy 8 hid1"); err != nil {
		t.Fatal(err)
	}
	// verifypw before boot: no system loaded.
	if _, err := vold.Command("cryptfs pde verifypw hid1"); err == nil {
		t.Fatal("verifypw before boot succeeded")
	}
	if _, err := vold.Command("cryptfs checkpw decoy"); err != nil {
		t.Fatal(err)
	}
	resp, err := vold.Command("cryptfs pde verifypw hid1")
	if err != nil || resp != "200 0 OK" {
		t.Fatalf("verifypw good: (%q, %v)", resp, err)
	}
	resp, err = vold.Command("cryptfs pde verifypw nope")
	if err != nil || resp != "-1" {
		t.Fatalf("verifypw bad: (%q, %v)", resp, err)
	}
	// Generate some dummy traffic, then GC with protection.
	fs := phone.DataFS()
	f, err := fs.Create("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 300*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	resp, err = vold.Command("cryptfs pde gc hid1")
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.HasPrefix(resp, "200 0 reclaimed ") {
		t.Fatalf("gc resp = %q", resp)
	}
	// GC with a wrong hidden password refuses in-band.
	resp, err = vold.Command("cryptfs pde gc wrongpw")
	if err != nil || resp != "-1" {
		t.Fatalf("gc bad pwd: (%q, %v)", resp, err)
	}
	// Hidden volume still opens after GC.
	if _, ok := phone.System().VerifyHidden("hid1"); !ok {
		t.Fatal("hidden volume lost after vold gc")
	}
}

func TestFDEPhoneLifecycle(t *testing.T) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := storage.NewMemDevice(blockSize, 2048)
	phone := NewFDEPhone(dev, meter, nominalBytes, prng.NewSeededEntropy(8), 8)
	sw := vclock.NewStopwatch(&clock)
	if err := phone.Initialize("pin1234"); err != nil {
		t.Fatal(err)
	}
	initTime := sw.Elapsed()
	// 13 GB in-place crypt pass: tens of minutes (paper: 18m23s).
	if initTime < 10*time.Minute || initTime > 30*time.Minute {
		t.Fatalf("FDE init %v, want tens of minutes", initTime)
	}
	sw = vclock.NewStopwatch(&clock)
	if err := phone.Boot("pin1234"); err != nil {
		t.Fatal(err)
	}
	bootTime := sw.Elapsed()
	if bootTime > time.Second {
		t.Fatalf("FDE boot %v, want sub-second (paper: 0.29s)", bootTime)
	}
	if phone.dataFS == nil {
		t.Fatal("no userdata fs after boot")
	}
	if err := phone.Boot("wrong"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("wrong-password boot err = %v", err)
	}
}

func TestMobiPlutoPhoneLifecycle(t *testing.T) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := storage.NewMemDevice(blockSize, 4096)
	phone := NewMobiPlutoPhone(dev, meter, nominalBytes, prng.NewSeededEntropy(9), 8)
	sw := vclock.NewStopwatch(&clock)
	if err := phone.Initialize("decoy"); err != nil {
		t.Fatal(err)
	}
	initTime := sw.Elapsed()
	// Random fill of 13 GB at ~6 MB/s: more than half an hour (paper: 37m).
	if initTime < 25*time.Minute || initTime > 60*time.Minute {
		t.Fatalf("MobiPluto init %v, want over half an hour", initTime)
	}
	if err := phone.Boot("decoy"); err != nil {
		t.Fatal(err)
	}
	if phone.hidden {
		t.Fatal("decoy boot entered hidden mode")
	}
	// Prepare hidden volume (first use formats at boot probe... MobiPluto
	// formats the hidden volume out of band; do it directly).
	hidDev, err := phone.sys.OpenHidden("hidpw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := formatHelper(hidDev); err != nil {
		t.Fatal(err)
	}
	sw = vclock.NewStopwatch(&clock)
	if err := phone.SwitchToHidden("hidpw"); err != nil {
		t.Fatalf("SwitchToHidden: %v", err)
	}
	switchTime := sw.Elapsed()
	// Reboot-based switch: around a minute (paper: 68s).
	if switchTime < 30*time.Second || switchTime > 2*time.Minute {
		t.Fatalf("MobiPluto switch %v, want around a minute", switchTime)
	}
	if !phone.hidden {
		t.Fatal("switch did not enter hidden mode")
	}
	if err := phone.ExitHidden("decoy"); err != nil {
		t.Fatal(err)
	}
	if phone.hidden {
		t.Fatal("exit did not return to public mode")
	}
}
