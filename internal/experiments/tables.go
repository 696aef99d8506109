package experiments

import (
	"fmt"
	"strings"
	"time"

	"mobiceal/internal/android"
	"mobiceal/internal/baseline/defy"
	"mobiceal/internal/baseline/hive"
	"mobiceal/internal/core"
	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
	"mobiceal/internal/workload"
)

// TableIRow is one row of Table I: a multi-snapshot-secure PDE scheme with
// its plain and encrypted sequential write throughput on its own testbed
// profile, and the resulting overhead.
type TableIRow struct {
	Scheme      string
	Profile     string
	PlainMBps   float64
	EncMBps     float64
	OverheadPct float64
}

// TableIConfig parameterizes the overhead comparison.
type TableIConfig struct {
	FileMB int
	Seed   uint64
}

func (c *TableIConfig) fill() {
	if c.FileMB == 0 {
		c.FileMB = 16
	}
	if c.Seed == 0 {
		c.Seed = 0x5441424c
	}
}

// TableI reproduces the overhead comparison: DEFY on the nandsim profile,
// HIVE on the SSD profile, MobiCeal on the Nexus 4 profile. Each scheme's
// encrypted throughput comes from running this repository's implementation;
// the plain row is minifs directly on the raw profile-costed device.
func TableI(cfg TableIConfig) ([]TableIRow, error) {
	cfg.fill()
	size := int64(cfg.FileMB) << 20

	rows := make([]TableIRow, 0, 3)

	// DEFY on nandsim.
	{
		profile := vclock.DefyNandsim()
		plain, err := rawThroughput(profile, size, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: defy plain: %w", err)
		}
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, profile)
		logical := deviceBlocksFor(cfg.FileMB)
		dev, err := defy.NewOverProfile(blockSize, logical, meter, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fs, err := minifs.Format(dev, 256)
		if err != nil {
			return nil, err
		}
		clock.Reset()
		sw := vclock.NewStopwatch(&clock)
		n, err := workload.SeqWrite(fs, "w", size, workload.DefaultChunk, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: defy write: %w", err)
		}
		enc := throughputKBps(n, sw.Elapsed()) / 1024
		rows = append(rows, overheadRow("DEFY", profile.Name, plain, enc))
	}

	// HIVE on the SSD.
	{
		profile := vclock.HiveSSD()
		plain, err := rawThroughput(profile, size, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: hive plain: %w", err)
		}
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, profile)
		key, err := prng.Bytes(prng.NewSeededEntropy(cfg.Seed), 32)
		if err != nil {
			return nil, err
		}
		phys := deviceBlocksFor(cfg.FileMB) * 3
		dev, err := hive.NewOverProfile(blockSize, phys, key, meter, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fs, err := minifs.Format(dev, 256)
		if err != nil {
			return nil, err
		}
		clock.Reset()
		sw := vclock.NewStopwatch(&clock)
		n, err := workload.SeqWrite(fs, "w", size, workload.DefaultChunk, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: hive write: %w", err)
		}
		enc := throughputKBps(n, sw.Elapsed()) / 1024
		rows = append(rows, overheadRow("HIVE", profile.Name, plain, enc))
	}

	// MobiCeal on the Nexus 4.
	{
		profile := vclock.Nexus4()
		plain, err := rawThroughput(profile, size, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: mobiceal plain: %w", err)
		}
		st, err := buildMobiCealStack(Fig4Config{FileMB: cfg.FileMB, Seed: cfg.Seed}, false)
		if err != nil {
			return nil, err
		}
		sw := vclock.NewStopwatch(st.Clock)
		n, err := workload.SeqWrite(st.FS, "w", size, workload.DefaultChunk, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: mobiceal write: %w", err)
		}
		enc := throughputKBps(n, sw.Elapsed()) / 1024
		rows = append(rows, overheadRow("MobiCeal", profile.Name, plain, enc))
	}
	return rows, nil
}

// rawThroughput measures minifs sequential write throughput (MB/s) directly
// on a profile-costed raw device — the "Ext4" column of Table I.
func rawThroughput(profile vclock.Profile, size int64, seed uint64) (float64, error) {
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, profile)
	dev := vclock.NewCostDevice(
		storage.NewMemDevice(blockSize, deviceBlocksFor(int(size>>20))), meter, vclock.Flash)
	fs, err := minifs.Format(dev, 256)
	if err != nil {
		return 0, err
	}
	clock.Reset()
	sw := vclock.NewStopwatch(&clock)
	n, err := workload.SeqWrite(fs, "w", size, workload.DefaultChunk, seed)
	if err != nil {
		return 0, err
	}
	return throughputKBps(n, sw.Elapsed()) / 1024, nil
}

func overheadRow(scheme, profile string, plain, enc float64) TableIRow {
	overhead := 0.0
	if plain > 0 {
		overhead = (1 - enc/plain) * 100
	}
	return TableIRow{
		Scheme:      scheme,
		Profile:     profile,
		PlainMBps:   plain,
		EncMBps:     enc,
		OverheadPct: overhead,
	}
}

// FormatTableI renders rows the way Table I reports them.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-14s %14s %16s %10s\n",
		"Scheme", "Testbed", "Ext4 (MB/s)", "Encrypted (MB/s)", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-14s %14.2f %16.2f %9.2f%%\n",
			r.Scheme, r.Profile, r.PlainMBps, r.EncMBps, r.OverheadPct)
	}
	return b.String()
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	System    string
	Init      time.Duration
	Boot      time.Duration
	SwitchIn  time.Duration // enter hidden mode
	SwitchOut time.Duration // exit hidden mode
	HasSwitch bool
}

// NominalUserdataBytes models the Nexus 4's ~13 GB userdata partition for
// the bulk control-plane charges of Table II.
const NominalUserdataBytes = 13 << 30

// TableII reproduces the timing table on the Nexus 4 profile: Android FDE,
// MobiPluto and MobiCeal initialization, decoy boot, and mode-switch times.
func TableII(seed uint64) ([]TableIIRow, error) {
	if seed == 0 {
		seed = 0x5441424c32
	}
	rows := make([]TableIIRow, 0, 3)

	// Android FDE.
	{
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, vclock.Nexus4())
		phone := android.NewFDEPhone(
			storage.NewMemDevice(blockSize, 4096), meter,
			NominalUserdataBytes, prng.NewSeededEntropy(seed), 16)
		sw := vclock.NewStopwatch(&clock)
		if err := phone.Initialize("pin"); err != nil {
			return nil, fmt.Errorf("experiments: fde init: %w", err)
		}
		initTime := sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.Boot("pin"); err != nil {
			return nil, err
		}
		rows = append(rows, TableIIRow{
			System: "Android FDE", Init: initTime, Boot: sw.Elapsed(),
		})
	}

	// MobiPluto.
	{
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, vclock.Nexus4())
		phone := android.NewMobiPlutoPhone(
			storage.NewMemDevice(blockSize, 8192), meter,
			NominalUserdataBytes, prng.NewSeededEntropy(seed+1), 16)
		sw := vclock.NewStopwatch(&clock)
		if err := phone.Initialize("decoy"); err != nil {
			return nil, fmt.Errorf("experiments: mobipluto init: %w", err)
		}
		initTime := sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.Boot("decoy"); err != nil {
			return nil, err
		}
		bootTime := sw.Elapsed()
		// Format the hidden volume out of band so the switch can mount it.
		hidDev, err := phoneHiddenDevice(phone, "hidpw")
		if err != nil {
			return nil, err
		}
		if _, err := minifs.Format(hidDev, 256); err != nil {
			return nil, err
		}
		sw = vclock.NewStopwatch(&clock)
		if err := phone.SwitchToHidden("hidpw"); err != nil {
			return nil, err
		}
		switchIn := sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.ExitHidden("decoy"); err != nil {
			return nil, err
		}
		rows = append(rows, TableIIRow{
			System: "MobiPluto", Init: initTime, Boot: bootTime,
			SwitchIn: switchIn, SwitchOut: sw.Elapsed(), HasSwitch: true,
		})
	}

	// MobiCeal.
	{
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, vclock.Nexus4())
		phone := android.NewMobiCealPhone(
			storage.NewMemDevice(blockSize, 8192), core.Config{
				NumVolumes: 8,
				KDFIter:    16,
				Entropy:    prng.NewSeededEntropy(seed + 2),
				Seed:       seed + 2,
				SeedSet:    true,
			}, meter)
		sw := vclock.NewStopwatch(&clock)
		if err := phone.Initialize("decoy", []string{"hidpw"}); err != nil {
			return nil, fmt.Errorf("experiments: mobiceal init: %w", err)
		}
		initTime := sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.Boot("decoy"); err != nil {
			return nil, err
		}
		bootTime := sw.Elapsed()
		if err := phone.StartFramework(); err != nil {
			return nil, err
		}
		sw = vclock.NewStopwatch(&clock)
		if err := phone.SwitchToHidden("hidpw"); err != nil {
			return nil, err
		}
		switchIn := sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.ExitHidden("decoy"); err != nil {
			return nil, err
		}
		rows = append(rows, TableIIRow{
			System: "MobiCeal", Init: initTime, Boot: bootTime,
			SwitchIn: switchIn, SwitchOut: sw.Elapsed(), HasSwitch: true,
		})
	}
	return rows, nil
}

// phoneHiddenDevice exposes the MobiPluto phone's hidden volume for
// out-of-band formatting.
func phoneHiddenDevice(p *android.MobiPlutoPhone, password string) (storage.Device, error) {
	return p.HiddenDevice(password)
}

// FormatTableII renders rows the way Table II reports them.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s %16s %16s\n",
		"System", "Init", "Boot (decoy)", "Switch (enter)", "Switch (exit)")
	for _, r := range rows {
		switchIn, switchOut := "N/A", "N/A"
		if r.HasSwitch {
			switchIn = r.SwitchIn.Round(10 * time.Millisecond).String()
			switchOut = r.SwitchOut.Round(10 * time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-12s %14s %14s %16s %16s\n",
			r.System,
			r.Init.Round(time.Second),
			r.Boot.Round(10*time.Millisecond),
			switchIn, switchOut)
	}
	return b.String()
}
