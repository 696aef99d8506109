// Availability test (paper Sec. V): besides the LG Nexus 4 prototype, the
// authors verified MobiCeal runs on a Huawei Nexus 6P with Android 7.1.2.
// MobiCeal sits in the block layer below the file system and above the
// storage medium, so the port "can be done with a little work on
// SEAndroid". This example replays the full lifecycle on the Nexus 6P
// device profile and compares the user-visible timings with the Nexus 4 —
// faster flash and boot shrink every number, with no code changes.
//
//	go run ./examples/availability
package main

import (
	"fmt"
	"log"
	"time"

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

type timings struct {
	device         string
	init, boot     time.Duration
	switchIn, Exit time.Duration
}

func run() error {
	n4, err := lifecycle(vclock.Nexus4(), "LG Nexus 4 (Android 4.2.2)", 1)
	if err != nil {
		return err
	}
	n6p, err := lifecycle(vclock.Nexus6P(), "Huawei Nexus 6P (Android 7.1.2)", 2)
	if err != nil {
		return err
	}
	fmt.Println("MobiCeal lifecycle on both prototype devices (same code, different profile):")
	fmt.Printf("%-32s %12s %10s %12s %12s\n", "Device", "Init", "Boot", "Enter hid.", "Exit hid.")
	for _, row := range []timings{n4, n6p} {
		fmt.Printf("%-32s %12s %10s %12s %12s\n",
			row.device,
			row.init.Round(time.Second),
			row.boot.Round(10*time.Millisecond),
			row.switchIn.Round(10*time.Millisecond),
			row.Exit.Round(time.Second))
	}
	fmt.Println("\nthe block-layer design is device-independent: any phone exposing")
	fmt.Println("flash as a block device (i.e., every mainstream phone) can run it.")
	return nil
}

func lifecycle(profile vclock.Profile, name string, seed uint64) (timings, error) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, profile)
	dev := mobiceal.NewMemDevice(4096, 8192)
	phone := android.NewMobiCealPhone(dev, mobiceal.Config{
		NumVolumes: 8,
		KDFIter:    16,
		Entropy:    prng.NewSeededEntropy(seed),
		Seed:       seed,
		SeedSet:    true,
	}, meter)

	out := timings{device: name}
	sw := vclock.NewStopwatch(&clock)
	if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
		return out, err
	}
	out.init = sw.Elapsed()
	sw = vclock.NewStopwatch(&clock)
	if err := phone.Boot("decoy"); err != nil {
		return out, err
	}
	out.boot = sw.Elapsed()
	if err := phone.StartFramework(); err != nil {
		return out, err
	}
	sw = vclock.NewStopwatch(&clock)
	if err := phone.SwitchToHidden("hidden"); err != nil {
		return out, err
	}
	out.switchIn = sw.Elapsed()
	sw = vclock.NewStopwatch(&clock)
	if err := phone.ExitHidden("decoy"); err != nil {
		return out, err
	}
	out.Exit = sw.Elapsed()
	return out, nil
}
