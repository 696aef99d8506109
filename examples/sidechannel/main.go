// Side-channel isolation and fast switching (paper Secs. IV-D, V-B, V-C):
// the simulated Android phone enters hidden mode through the screen lock in
// seconds — unmounting the public volume, putting tmpfs RAM disks over the
// log and cache paths so no hidden-mode trace can reach persistent public
// storage — and leaves it only through a reboot, which clears RAM.
//
//	go run ./examples/sidechannel
package main

import (
	"errors"
	"fmt"
	"log"

	"mobiceal"
	"mobiceal/internal/android"
	"mobiceal/internal/prng"
	"mobiceal/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := mobiceal.NewMemDevice(4096, 8192)
	phone := android.NewMobiCealPhone(dev, mobiceal.Config{
		NumVolumes: 8,
		KDFIter:    64,
		Entropy:    prng.NewSeededEntropy(42),
		Seed:       42,
		SeedSet:    true,
	}, meter)

	sw := vclock.NewStopwatch(&clock)
	if err := phone.Initialize("decoy-pin", []string{"deep-secret"}); err != nil {
		return err
	}
	fmt.Printf("initialized in %v of device time (no disk-filling pass needed)\n",
		sw.Elapsed().Round(1e9))

	if err := phone.Boot("decoy-pin"); err != nil {
		return err
	}
	if err := phone.StartFramework(); err != nil {
		return err
	}
	fmt.Println("\nbooted into public mode; mount table:")
	printMounts(phone)

	// The opportunistic moment: a source hands over documents. Rebooting
	// would take over a minute; the screen lock takes seconds.
	fmt.Println("\n>>> hidden password entered at the screen lock <<<")
	sw = vclock.NewStopwatch(&clock)
	if err := phone.SwitchToHidden("deep-secret"); err != nil {
		return err
	}
	fmt.Printf("switched to hidden mode in %v (paper: 9.27s; reboot-based PDEs: >60s)\n",
		sw.Elapsed().Round(1e7))
	fmt.Println("mount table now:")
	printMounts(phone)
	fmt.Println("  - public volume unmounted: hidden activity cannot leak into it")
	fmt.Println("  - /cache and /devlog on tmpfs: logs and caches die with the RAM")

	fs := phone.DataFS()
	f, err := fs.Create("leaked-documents")
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte("the documents"), 0); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	fmt.Println("\nsensitive documents captured into the hidden volume")

	// One-way switching: there is no fast path back. The only exit is a
	// reboot, which clears every hidden-mode trace from RAM.
	if err := phone.SwitchToHidden("deep-secret"); errors.Is(err, android.ErrWrongMode) {
		fmt.Println("fast switching is one-way by design (hidden -> public requires reboot)")
	}
	sw = vclock.NewStopwatch(&clock)
	if err := phone.ExitHidden("decoy-pin"); err != nil {
		return err
	}
	fmt.Printf("\nrebooted back to public mode in %v; RAM (and tmpfs traces) cleared\n",
		sw.Elapsed().Round(1e9))
	printMounts(phone)
	fmt.Println("\npublic /data contents:", phone.DataFS().List())
	fmt.Println("no trace of the hidden session exists outside the hidden volume itself")
	return nil
}

func printMounts(phone *android.MobiCealPhone) {
	mounts := phone.Mounts()
	for _, path := range []string{android.PathData, android.PathCache, android.PathDevlog} {
		fmt.Printf("  %-8s -> %s\n", path, mounts[path])
	}
}
