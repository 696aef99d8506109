// Command mobiceal manages MobiCeal device images: initialize a PDE device,
// store and retrieve files in the public or a hidden volume, run garbage
// collection, and capture snapshots for the adversary tool.
//
// Usage:
//
//	mobiceal init  -image disk.img -mb 64 -volumes 8 -decoy PW [-hidden PW1,PW2]
//	mobiceal put   -image disk.img -pass PW -name remote.txt -from local.txt
//	mobiceal get   -image disk.img -pass PW -name remote.txt -to local.txt
//	mobiceal ls    -image disk.img -pass PW
//	mobiceal rm    -image disk.img -pass PW -name remote.txt
//	mobiceal gc    -image disk.img -hidden PW1,PW2
//	mobiceal snap  -image disk.img -to snap-1.img
//	mobiceal check -image disk.img [-pass PW]
//	mobiceal status -image disk.img [-json] [-events]
//	mobiceal trace -image disk.img -pass PW [-ops N] [-json] [-jsonl out.jsonl]
//	mobiceal trace -from host:port | -replay events.jsonl [-json]
//
// put/get/ls/rm try the password as the decoy first, then as a hidden
// password, so one command surface serves both modes — just like the boot
// flow. `gc` needs every hidden password so hidden volumes are protected
// (the paper requires GC to run from hidden mode).
//
// The global -debug-addr flag (before the subcommand) serves expvar and
// pprof endpoints for the life of the process:
//
//	mobiceal -debug-addr localhost:6060 status -image disk.img
//	curl http://localhost:6060/debug/vars   # includes the telemetry snapshot
//
// The global -direct flag selects the real-storage path: it opens the
// image O_DIRECT (Linux file systems that support it; tmpfs and non-Linux
// builds report a clean error):
//
//	mobiceal -direct put -image disk.img -pass PW -name f -from f
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobiceal"
)

const blockSize = 4096

// directMode is the global -direct flag, set by run() before the
// subcommand runs. Every image open goes through openImageCLI /
// createImageCLI so the flag applies uniformly.
var directMode bool

// openImageCLI opens an existing image honouring the global -direct flag.
func openImageCLI(path string) (mobiceal.Device, error) {
	dev, err := mobiceal.OpenImageWith(path, blockSize, mobiceal.FileOptions{Direct: directMode})
	if err != nil && errors.Is(err, mobiceal.ErrDirectUnsupported) {
		return nil, fmt.Errorf("open %s: %w (drop -direct or move the image off tmpfs)", path, err)
	}
	return dev, err
}

// createImageCLI creates a fresh image honouring the global -direct flag.
func createImageCLI(path string, numBlocks uint64) (mobiceal.Device, error) {
	dev, err := mobiceal.CreateImageWith(path, blockSize, numBlocks, mobiceal.FileOptions{Direct: directMode})
	if err != nil && errors.Is(err, mobiceal.ErrDirectUnsupported) {
		return nil, fmt.Errorf("create %s: %w (drop -direct or move the image off tmpfs)", path, err)
	}
	return dev, err
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobiceal:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Global flags precede the subcommand: parsing stops at the first
	// non-flag argument.
	globals := flag.NewFlagSet("mobiceal", flag.ContinueOnError)
	debugAddr := globals.String("debug-addr", "",
		"serve expvar and pprof debug endpoints on this address (e.g. localhost:6060)")
	globals.BoolVar(&directMode, "direct", false,
		"open the device image with O_DIRECT (page-cache bypass; Linux only)")
	if err := globals.Parse(args); err != nil {
		return err
	}
	args = globals.Args()
	if len(args) < 1 {
		return errors.New("usage: mobiceal [-debug-addr ADDR] [-direct] <init|put|get|ls|rm|gc|snap|check|status|trace> [flags]")
	}
	if *debugAddr != "" {
		if err := startDebugServer(*debugAddr); err != nil {
			return err
		}
	}
	switch args[0] {
	case "init":
		return cmdInit(args[1:])
	case "put":
		return cmdPut(args[1:])
	case "get":
		return cmdGet(args[1:])
	case "ls":
		return cmdLs(args[1:])
	case "rm":
		return cmdRm(args[1:])
	case "gc":
		return cmdGC(args[1:])
	case "snap":
		return cmdSnap(args[1:])
	case "check":
		return cmdCheck(args[1:])
	case "status":
		return cmdStatus(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// cmdCheck is the fsck analogue: verify the pool's structural invariants
// and, given a password, the corresponding volume's file system.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	pass := fs.String("pass", "", "optional password to check one volume's file system")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" {
		return errors.New("check: -image is required")
	}
	dev, err := openImageCLI(*image)
	if err != nil {
		return err
	}
	defer closeQuiet(dev)
	sys, err := mobiceal.Open(dev, mobiceal.Config{})
	if err != nil {
		return err
	}
	if err := sys.Pool().CheckIntegrity(); err != nil {
		return fmt.Errorf("pool integrity: %w", err)
	}
	fmt.Println("pool: OK (bitmap and mappings consistent)")
	if *pass != "" {
		_, vol, fsys, err := openVolume(*image, *pass)
		if err != nil {
			return err
		}
		if err := fsys.CheckIntegrity(); err != nil {
			return fmt.Errorf("%s volume file system: %w", vol.Mode(), err)
		}
		fmt.Printf("%s volume V%d file system: OK (%d files)\n",
			vol.Mode(), vol.ID(), len(fsys.List()))
	}
	return nil
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	mb := fs.Int("mb", 64, "device size in MiB")
	volumes := fs.Int("volumes", 8, "number of virtual volumes")
	decoy := fs.String("decoy", "", "decoy password")
	hidden := fs.String("hidden", "", "comma-separated hidden passwords")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *decoy == "" {
		return errors.New("init: -image and -decoy are required")
	}
	dev, err := createImageCLI(*image, uint64(*mb)<<20/blockSize)
	if err != nil {
		return err
	}
	defer closeQuiet(dev)
	var hiddenPwds []string
	if *hidden != "" {
		hiddenPwds = strings.Split(*hidden, ",")
	}
	sys, err := mobiceal.Setup(dev, mobiceal.Config{NumVolumes: *volumes}, *decoy, hiddenPwds)
	if err != nil {
		return err
	}
	vol, err := sys.OpenPublic(*decoy)
	if err != nil {
		return err
	}
	if _, err := vol.Format(); err != nil {
		return err
	}
	for _, pwd := range hiddenPwds {
		hvol, err := sys.OpenHidden(pwd)
		if err != nil {
			return err
		}
		if _, err := hvol.Format(); err != nil {
			return err
		}
	}
	if err := sys.Commit(); err != nil {
		return err
	}
	fmt.Printf("initialized %s: %d MiB, %d volumes, %d hidden\n",
		*image, *mb, *volumes, len(hiddenPwds))
	return nil
}

// openVolume opens the image and mounts whichever volume the password
// unlocks: public (probe mount) first, then hidden (verifier).
func openVolume(image, password string) (*mobiceal.System, *mobiceal.Volume, *mobiceal.FS, error) {
	dev, err := openImageCLI(image)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := mobiceal.Open(dev, mobiceal.Config{})
	if err != nil {
		closeQuiet(dev)
		return nil, nil, nil, err
	}
	registerDebugSystem(sys)
	if vol, err := sys.OpenPublic(password); err == nil {
		if fsys, err := vol.Mount(); err == nil {
			return sys, vol, fsys, nil
		}
	}
	vol, err := sys.OpenHidden(password)
	if err != nil {
		closeQuiet(dev)
		return nil, nil, nil, fmt.Errorf("password opens no volume: %w", err)
	}
	fsys, err := vol.Mount()
	if err != nil {
		closeQuiet(dev)
		return nil, nil, nil, err
	}
	return sys, vol, fsys, nil
}

func cmdPut(args []string) error {
	fs := flag.NewFlagSet("put", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	pass := fs.String("pass", "", "password (decoy or hidden)")
	name := fs.String("name", "", "name inside the volume")
	from := fs.String("from", "", "local source file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *pass == "" || *name == "" || *from == "" {
		return errors.New("put: -image, -pass, -name, -from are required")
	}
	data, err := os.ReadFile(*from)
	if err != nil {
		return err
	}
	sys, vol, fsys, err := openVolume(*image, *pass)
	if err != nil {
		return err
	}
	f, err := fsys.Create(*name)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	if err := fsys.Sync(); err != nil {
		return err
	}
	if err := sys.Commit(); err != nil {
		return err
	}
	fmt.Printf("stored %s (%d bytes) in %s volume V%d\n",
		*name, len(data), vol.Mode(), vol.ID())
	return nil
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	pass := fs.String("pass", "", "password (decoy or hidden)")
	name := fs.String("name", "", "name inside the volume")
	to := fs.String("to", "", "local destination file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *pass == "" || *name == "" {
		return errors.New("get: -image, -pass, -name are required")
	}
	_, _, fsys, err := openVolume(*image, *pass)
	if err != nil {
		return err
	}
	f, err := fsys.Open(*name)
	if err != nil {
		return err
	}
	data := make([]byte, f.Size())
	if _, err := f.ReadAt(data, 0); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if *to == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*to, data, 0o600)
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	pass := fs.String("pass", "", "password (decoy or hidden)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *pass == "" {
		return errors.New("ls: -image and -pass are required")
	}
	_, vol, fsys, err := openVolume(*image, *pass)
	if err != nil {
		return err
	}
	fmt.Printf("# %s volume V%d\n", vol.Mode(), vol.ID())
	for _, name := range fsys.List() {
		f, err := fsys.Open(name)
		if err != nil {
			return err
		}
		fmt.Printf("%10d  %s\n", f.Size(), name)
	}
	return nil
}

func cmdRm(args []string) error {
	fs := flag.NewFlagSet("rm", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	pass := fs.String("pass", "", "password (decoy or hidden)")
	name := fs.String("name", "", "name inside the volume")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *pass == "" || *name == "" {
		return errors.New("rm: -image, -pass, -name are required")
	}
	sys, _, fsys, err := openVolume(*image, *pass)
	if err != nil {
		return err
	}
	if err := fsys.Remove(*name); err != nil {
		return err
	}
	if err := fsys.Sync(); err != nil {
		return err
	}
	return sys.Commit()
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	hidden := fs.String("hidden", "", "comma-separated hidden passwords (protects those volumes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" {
		return errors.New("gc: -image is required")
	}
	dev, err := openImageCLI(*image)
	if err != nil {
		return err
	}
	defer closeQuiet(dev)
	sys, err := mobiceal.Open(dev, mobiceal.Config{})
	if err != nil {
		return err
	}
	var protected []int
	if *hidden != "" {
		for _, pwd := range strings.Split(*hidden, ",") {
			vol, err := sys.OpenHidden(pwd)
			if err != nil {
				return fmt.Errorf("hidden password rejected: %w", err)
			}
			protected = append(protected, vol.ID())
		}
	}
	report, err := sys.GC(protected, nil)
	if err != nil {
		return err
	}
	fmt.Printf("gc: reclaimed %d of %d dummy blocks (fraction %.2f)\n",
		report.Reclaimed, report.Scanned, report.Fraction)
	return nil
}

func cmdSnap(args []string) error {
	fs := flag.NewFlagSet("snap", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	to := fs.String("to", "", "snapshot destination path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *to == "" {
		return errors.New("snap: -image and -to are required")
	}
	data, err := os.ReadFile(*image)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*to, data, 0o600); err != nil {
		return err
	}
	fmt.Printf("snapshot: %s -> %s (%d bytes)\n", *image, *to, len(data))
	return nil
}

func closeQuiet(dev mobiceal.Device) {
	_ = dev.Close()
}
