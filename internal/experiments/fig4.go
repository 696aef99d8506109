// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI-B): Fig. 4 (sequential throughput of five storage
// stacks under dd- and Bonnie++-style workloads), Table I (overhead
// comparison of DEFY, HIVE and MobiCeal on their respective testbeds) and
// Table II (initialization, boot and switching times of Android FDE,
// MobiPluto and MobiCeal) — plus the security-game, randomness, allocator,
// dummy-rate and GC studies that back the design discussion. The same
// functions drive cmd/experiments and the root benchmark suite.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mobiceal/internal/baseline/fde"
	"mobiceal/internal/core"
	"mobiceal/internal/dm"
	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
	"mobiceal/internal/workload"
	"mobiceal/internal/xcrypto"
)

const blockSize = 4096

// Fig4Config parameterizes the throughput experiment.
type Fig4Config struct {
	// FileMB is the test-file size in MiB (the paper uses 400 MB on real
	// hardware; the simulation default is 32).
	FileMB int
	// Seed drives all randomness.
	Seed uint64
}

func (c *Fig4Config) fill() {
	if c.FileMB == 0 {
		c.FileMB = 32
	}
	if c.Seed == 0 {
		c.Seed = 0x46494734
	}
}

// Fig4Row is one bar group of Fig. 4: a storage stack with its dd and
// Bonnie++ sequential throughputs in KB/s.
type Fig4Row struct {
	Stack       string
	DDWriteKBps float64
	DDReadKBps  float64
	BWriteKBps  float64
	BReadKBps   float64
}

// Stack is a mounted storage configuration under a virtual clock. The
// benchmark suite drives Stacks directly; Fig4 builds and measures all
// five.
type Stack struct {
	FS    *minifs.FS
	Clock *vclock.Clock
}

// StackNames lists the five Fig. 4 stacks in presentation order.
var StackNames = []string{"Android", "A-T-P", "A-T-H", "MC-P", "MC-H"}

// NewStack builds one of the five Fig. 4 stacks by name.
func NewStack(name string, cfg Fig4Config) (*Stack, error) {
	cfg.fill()
	switch name {
	case "Android":
		return buildAndroidStack(cfg)
	case "A-T-P":
		return buildThinStack(cfg, false)
	case "A-T-H":
		return buildThinStack(cfg, true)
	case "MC-P":
		return buildMobiCealStack(cfg, false)
	case "MC-H":
		return buildMobiCealStack(cfg, true)
	default:
		return nil, fmt.Errorf("experiments: unknown stack %q", name)
	}
}

// Fig4 measures the five stacks of Fig. 4: Android (FDE), A-T-P / A-T-H
// (stock thin provisioning + FDE, public / hidden volume), MC-P / MC-H
// (MobiCeal public / hidden).
func Fig4(cfg Fig4Config) ([]Fig4Row, error) {
	cfg.fill()
	builders := []struct {
		name  string
		build func() (*Stack, error)
	}{
		{"Android", func() (*Stack, error) { return buildAndroidStack(cfg) }},
		{"A-T-P", func() (*Stack, error) { return buildThinStack(cfg, false) }},
		{"A-T-H", func() (*Stack, error) { return buildThinStack(cfg, true) }},
		{"MC-P", func() (*Stack, error) { return buildMobiCealStack(cfg, false) }},
		{"MC-H", func() (*Stack, error) { return buildMobiCealStack(cfg, true) }},
	}
	rows := make([]Fig4Row, 0, len(builders))
	for _, b := range builders {
		st, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("experiments: building %s: %w", b.name, err)
		}
		row, err := measureStack(b.name, st, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: measuring %s: %w", b.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func throughputKBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1024 / elapsed.Seconds()
}

func measureStack(name string, st *Stack, cfg Fig4Config) (Fig4Row, error) {
	size := int64(cfg.FileMB) << 20
	row := Fig4Row{Stack: name}

	// dd phase: 64 KB chunks, fdatasync, cold-cache read.
	sw := vclock.NewStopwatch(st.Clock)
	n, err := workload.SeqWrite(st.FS, "dd.bin", size, workload.DefaultChunk, cfg.Seed+1)
	if err != nil {
		return row, err
	}
	row.DDWriteKBps = throughputKBps(n, sw.Elapsed())
	sw = vclock.NewStopwatch(st.Clock)
	n, err = workload.SeqRead(st.FS, "dd.bin", workload.DefaultChunk)
	if err != nil {
		return row, err
	}
	row.DDReadKBps = throughputKBps(n, sw.Elapsed())

	// Bonnie++ block phase: 8 KB chunks on a fresh file.
	sw = vclock.NewStopwatch(st.Clock)
	n, err = workload.SeqWrite(st.FS, "bonnie.bin", size, 8192, cfg.Seed+2)
	if err != nil {
		return row, err
	}
	row.BWriteKBps = throughputKBps(n, sw.Elapsed())
	sw = vclock.NewStopwatch(st.Clock)
	n, err = workload.SeqRead(st.FS, "bonnie.bin", 8192)
	if err != nil {
		return row, err
	}
	row.BReadKBps = throughputKBps(n, sw.Elapsed())
	return row, nil
}

// deviceBlocksFor sizes a simulated device with comfortable headroom for
// two test files plus dummy writes, FS metadata and the pool regions.
func deviceBlocksFor(fileMB int) uint64 {
	fileBlocks := uint64(fileMB) << 20 / blockSize
	return fileBlocks*5 + 4096
}

// buildAndroidStack is the "Android" bar: stock FDE over the raw partition.
func buildAndroidStack(cfg Fig4Config) (*Stack, error) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := storage.NewMemDevice(blockSize, deviceBlocksFor(cfg.FileMB))
	sys, err := fde.Setup(dev, fde.Config{
		KDFIter: 16,
		Entropy: prng.NewSeededEntropy(cfg.Seed),
		Meter:   meter,
	}, "decoy")
	if err != nil {
		return nil, err
	}
	fs, err := sys.FormatUserdata("decoy")
	if err != nil {
		return nil, err
	}
	clock.Reset()
	return &Stack{FS: fs, Clock: &clock}, nil
}

// buildThinStack is A-T-P / A-T-H: stock thin provisioning (sequential
// allocation, no dummy writes) with dm-crypt on the selected thin volume.
func buildThinStack(cfg Fig4Config, hidden bool) (*Stack, error) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	total := deviceBlocksFor(cfg.FileMB)
	metaBlocks := thinp.MetaBlocksNeeded(total, blockSize)
	dev := storage.NewMemDevice(blockSize, total+metaBlocks)
	metaDev, err := storage.NewSliceDevice(dev, 0, metaBlocks)
	if err != nil {
		return nil, err
	}
	dataDev, err := storage.NewSliceDevice(dev, metaBlocks, total)
	if err != nil {
		return nil, err
	}
	pool, err := thinp.CreatePool(vclock.NewCostDevice(dataDev, meter, vclock.Flash), metaDev, thinp.Options{
		Allocator: thinp.NewSequentialAllocator(),
		Entropy:   prng.NewSeededEntropy(cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	for id := 1; id <= 2; id++ {
		if err := pool.CreateThin(id, total); err != nil {
			return nil, err
		}
	}
	id := 1
	if hidden {
		id = 2
	}
	thin, err := pool.Thin(id)
	if err != nil {
		return nil, err
	}
	key, err := prng.Bytes(prng.NewSeededEntropy(cfg.Seed+9), 64)
	if err != nil {
		return nil, err
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		return nil, err
	}
	crypt := dm.NewCrypt(vclock.NewCostDevice(thin, meter, vclock.Thin), cipher)
	fs, err := minifs.Format(vclock.NewCostDevice(crypt, meter, vclock.Crypt), 1024)
	if err != nil {
		return nil, err
	}
	clock.Reset()
	return &Stack{FS: fs, Clock: &clock}, nil
}

// buildMobiCealStack is MC-P / MC-H: the full MobiCeal system.
func buildMobiCealStack(cfg Fig4Config, hidden bool) (*Stack, error) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Nexus4())
	dev := storage.NewMemDevice(blockSize, deviceBlocksFor(cfg.FileMB)+4096)
	sys, err := core.Setup(dev, core.Config{
		NumVolumes: 8,
		KDFIter:    16,
		Entropy:    prng.NewSeededEntropy(cfg.Seed),
		Seed:       cfg.Seed,
		SeedSet:    true,
		Meter:      meter,
	}, "decoy", []string{"hidden-pass"})
	if err != nil {
		return nil, err
	}
	var vol *core.Volume
	if hidden {
		vol, err = sys.OpenHidden("hidden-pass")
	} else {
		vol, err = sys.OpenPublic("decoy")
	}
	if err != nil {
		return nil, err
	}
	fs, err := vol.Format()
	if err != nil {
		return nil, err
	}
	clock.Reset()
	return &Stack{FS: fs, Clock: &clock}, nil
}

// FormatFig4 renders rows the way the paper's Fig. 4 reports them.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s\n",
		"Stack", "dd-Write", "dd-Read", "B-Write", "B-Read")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s\n",
		"", "(KB/s)", "(KB/s)", "(KB/s)", "(KB/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.0f %12.0f %12.0f %12.0f\n",
			r.Stack, r.DDWriteKBps, r.DDReadKBps, r.BWriteKBps, r.BReadKBps)
	}
	return b.String()
}
