package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mobiceal/internal/dm"
	"mobiceal/internal/ioq"
	"mobiceal/internal/obs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
	"mobiceal/internal/xcrypto"
)

// Core errors.
var (
	// ErrBadPassword reports a password that opens no volume.
	ErrBadPassword = errors.New("core: password does not open any volume")
	// ErrTooSmall reports a device too small for the MobiCeal layout.
	ErrTooSmall = errors.New("core: device too small")
	// ErrBadConfig reports an invalid configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrIndexCollision reports hidden passwords whose derived volume
	// indexes collide even after salt retries.
	ErrIndexCollision = errors.New("core: hidden volume index collision")
)

// Config configures Setup and Open.
type Config struct {
	// NumVolumes is n, the total number of virtual volumes (public +
	// hidden + dummy). Default 8.
	NumVolumes int
	// Lambda is the exponential rate for dummy-write sizes. Default 1
	// (the paper's example value).
	Lambda float64
	// X is the dummy-trigger constant x. Default 50 (the paper's example).
	X int
	// KDFIter is the PBKDF2 iteration count. Default 2000 (Android 4.x).
	KDFIter int
	// Entropy supplies keys, salts and dummy noise. Default: system CSPRNG.
	Entropy prng.Entropy
	// Seed drives simulation randomness (allocator, policy) for
	// reproducible experiments. Default 0 means derive from Entropy.
	Seed uint64
	// SeedSet marks Seed as intentional even when zero.
	SeedSet bool
	// Meter, when set, runs the system on the virtual testbed: the data
	// region, every thin view and every crypt view are wrapped in a
	// vclock.CostDevice charging it (see view). Nothing below core knows.
	Meter *vclock.Meter
	// SequentialAlloc replaces the random allocator with the stock
	// sequential one. FOR ABLATION EXPERIMENTS ONLY: it reintroduces the
	// layout leak of Sec. IV-B that the adversary's run detector exploits.
	SequentialAlloc bool
	// PolicyRefreshEvery is the number of provisioning decisions between
	// stored_rand refreshes, standing in for the prototype's one-hour
	// jiffies capture at simulation scale. Default 256.
	PolicyRefreshEvery int
	// AsyncWorkers is the worker count of the system's I/O scheduler
	// (Volume.SubmitRead/SubmitWrite/Flush) — also the most requests of
	// one volume at the device at once, so it bounds the queue depth a
	// direct image sees. 0 selects the scheduler's default
	// (max(2, GOMAXPROCS)).
	AsyncWorkers int
	// Retry tunes the scheduler's transient-fault retry policy for the
	// async volume API. The zero value selects the default policy (3
	// attempts, exponential backoff); MaxAttempts < 0 disables retry.
	Retry ioq.RetryPolicy
}

func (c *Config) fill() error {
	if c.NumVolumes == 0 {
		c.NumVolumes = 8
	}
	if c.NumVolumes < 2 {
		return fmt.Errorf("%w: need at least 2 volumes, got %d", ErrBadConfig, c.NumVolumes)
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Lambda < 0 {
		return fmt.Errorf("%w: negative lambda", ErrBadConfig)
	}
	if c.X == 0 {
		c.X = 50
	}
	if c.X < 0 {
		return fmt.Errorf("%w: negative x", ErrBadConfig)
	}
	if c.KDFIter == 0 {
		c.KDFIter = xcrypto.DefaultKDFIter
	}
	if c.Entropy == nil {
		c.Entropy = prng.SystemEntropy()
	}
	if !c.SeedSet && c.Seed == 0 {
		seedBytes, err := prng.Bytes(c.Entropy, 8)
		if err != nil {
			return fmt.Errorf("core: seeding simulation source: %w", err)
		}
		for i, b := range seedBytes {
			c.Seed |= uint64(b) << (8 * uint(i))
		}
	}
	return nil
}

// PublicVolumeID is the thin id of the public volume; the paper fixes
// V1 as public (Sec. IV-C).
const PublicVolumeID = 1

// verifierMagicLen is the byte length of the password verifier stored at
// virtual block 0 of each non-public volume.
const verifierHashLen = sha256.Size

// System is an initialized MobiCeal device: the pool, the footer, and the
// dummy-write machinery. Obtain one with Setup (fresh device) or Open
// (existing device).
type System struct {
	dev    storage.Device
	cfg    Config
	footer *xcrypto.Footer
	pool   *thinp.Pool
	policy *StoredRandPolicy

	// asyncOnce lazily starts the shared I/O scheduler behind the
	// volumes' Submit*/Flush API (see async.go); queues shares one
	// submission queue per volume id across repeated opens.
	asyncOnce sync.Once
	sched     *ioq.Scheduler
	queueMu   sync.Mutex
	queues    map[int]*ioq.VolumeQueue

	// dataStats and metaStats are the accounting wraps buildPool installs
	// around the pool's region devices; Telemetry snapshots them. They sit
	// below every volume, so their numbers aggregate all traffic without
	// attributing it (telemetry.go).
	dataStats *storage.StatsDevice
	metaStats *storage.StatsDevice

	// flight is the request-lifecycle flight recorder: a bounded,
	// memory-only ring of causal events the ioq/thinp/storage layers
	// record into when enabled. Off by default; disabled cost is one
	// atomic load per choke point. Deniability-safe by the same argument
	// as the rest of the telemetry surface — every stage hook sits on a
	// choke point real and dummy traffic traverse identically.
	flight *obs.FlightRecorder

	// noiseCharged is the high-water mark of dummy-write blocks already
	// charged to cfg.Meter (chargeThin).
	noiseCharged atomic.Uint64

	// gcSrc is the source GC draws from when the caller passes none:
	// created on the first such pass, advanced by every one (gc.go).
	gcMu  sync.Mutex
	gcSrc *prng.Source

	metaBlocks uint64
	dataBlocks uint64
}

// LayoutInfo is the Fig. 3 region split of a MobiCeal device. It is public
// knowledge: the adversary is assumed to know the design and the metadata
// location (Sec. IV-B).
type LayoutInfo struct {
	MetaBlocks   uint64
	DataBlocks   uint64
	FooterBlocks uint64
}

// Layout computes the region split for a device the way Setup does, so the
// adversary toolkit can locate pool metadata on a seized image.
func Layout(dev storage.Device) (LayoutInfo, error) {
	m, d, f, err := layout(dev)
	if err != nil {
		return LayoutInfo{}, err
	}
	return LayoutInfo{MetaBlocks: m, DataBlocks: d, FooterBlocks: f}, nil
}

// layout computes the Fig. 3 split for a device: metadata region, data
// region, footer region (in blocks).
func layout(dev storage.Device) (metaBlocks, dataBlocks, footerBlocks uint64, err error) {
	bs := dev.BlockSize()
	total := dev.NumBlocks()
	footerBlocks = xcrypto.FooterBlocks(bs)
	// First pass over-estimates metadata need using the whole device size.
	metaBlocks = thinp.MetaBlocksNeeded(total, bs)
	if metaBlocks+footerBlocks+8 > total {
		return 0, 0, 0, fmt.Errorf("%w: %d blocks", ErrTooSmall, total)
	}
	dataBlocks = total - metaBlocks - footerBlocks
	return metaBlocks, dataBlocks, footerBlocks, nil
}

// Setup initializes a fresh MobiCeal device: crypto footer wrapped by the
// decoy password, thin pool with random allocation and the dummy-write
// policy, n virtual volumes, hidden-password verifiers, and dummy-volume
// cover blocks. Existing contents are destroyed.
//
// hiddenPasswords may be empty (encryption without deniability, the paper's
// first user flow) or carry one password per desired hidden volume
// (multi-level deniability, Sec. IV-C).
func Setup(dev storage.Device, cfg Config, decoyPassword string, hiddenPasswords []string) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(hiddenPasswords) > cfg.NumVolumes-1 {
		return nil, fmt.Errorf("%w: %d hidden passwords for %d volumes",
			ErrBadConfig, len(hiddenPasswords), cfg.NumVolumes)
	}
	metaBlocks, dataBlocks, _, err := layout(dev)
	if err != nil {
		return nil, err
	}

	// Generate a footer whose PDE salt gives the hidden passwords
	// collision-free volume indexes; the paper re-salts on collision
	// (Sec. IV-C "If different hidden volumes result in the same k,
	// another random salt will be chosen").
	var footer *xcrypto.Footer
	const saltRetries = 64
	for try := 0; ; try++ {
		f, _, err := xcrypto.NewFooter(cfg.Entropy, decoyPassword, cfg.NumVolumes, cfg.KDFIter)
		if err != nil {
			return nil, fmt.Errorf("core: creating footer: %w", err)
		}
		if !hiddenIndexCollision(f, hiddenPasswords, decoyPassword) {
			footer = f
			break
		}
		if try == saltRetries {
			return nil, fmt.Errorf("%w after %d salt retries", ErrIndexCollision, saltRetries)
		}
	}
	if err := xcrypto.WriteFooter(dev, footer); err != nil {
		return nil, fmt.Errorf("core: writing footer: %w", err)
	}

	sys := &System{
		dev:        dev,
		cfg:        cfg,
		footer:     footer,
		metaBlocks: metaBlocks,
		dataBlocks: dataBlocks,
	}
	if err := sys.buildPool(true); err != nil {
		return nil, err
	}

	// Create the n virtual volumes, each thin-overcommitted to the full
	// data size.
	for id := 1; id <= cfg.NumVolumes; id++ {
		if err := sys.pool.CreateThin(id, dataBlocks); err != nil {
			return nil, fmt.Errorf("core: creating volume %d: %w", id, err)
		}
	}

	// Install verifiers on hidden volumes and cover blocks on dummy
	// volumes so every non-public volume has exactly one block mapped at
	// virtual block 0 after setup — indistinguishable states.
	hiddenIDs := make(map[int]bool, len(hiddenPasswords))
	for _, pwd := range hiddenPasswords {
		id := footer.HiddenIndex(pwd)
		hiddenIDs[id] = true
		if err := sys.writeVerifier(id, pwd); err != nil {
			return nil, err
		}
	}
	noise := make([]byte, dev.BlockSize())
	for id := 2; id <= cfg.NumVolumes; id++ {
		if hiddenIDs[id] {
			continue
		}
		if err := xcrypto.FillNoise(cfg.Entropy, noise); err != nil {
			return nil, fmt.Errorf("core: dummy cover noise: %w", err)
		}
		thin, err := sys.view(id, nil)
		if err != nil {
			return nil, err
		}
		if err := thin.WriteBlock(0, noise); err != nil {
			return nil, fmt.Errorf("core: writing dummy cover block: %w", err)
		}
	}
	if err := sys.pool.Commit(); err != nil {
		return nil, fmt.Errorf("core: committing setup: %w", err)
	}
	return sys, nil
}

func hiddenIndexCollision(f *xcrypto.Footer, hiddenPasswords []string, decoyPassword string) bool {
	seen := make(map[int]bool, len(hiddenPasswords))
	for _, pwd := range hiddenPasswords {
		if pwd == decoyPassword {
			return true
		}
		k := f.HiddenIndex(pwd)
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// Open loads an existing MobiCeal device. Opening performs mount-time
// crash recovery: the thin pool's A/B metadata is validated and the newest
// durable transaction selected, so a device that lost power mid-commit
// opens to exactly its pre- or post-commit state (Recovery reports which).
//
// The volume count n comes from the footer, and it must agree with the
// pool: at least 2 volumes, held as exactly thins 1..n. A footer that
// says otherwise is refused with xcrypto.ErrBadFooter — a count too high
// would send dummy writes to thins that do not exist, one too low would
// silently turn dummy writes off.
func Open(dev storage.Device, cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	footer, err := xcrypto.ReadFooter(dev)
	if err != nil {
		return nil, fmt.Errorf("core: reading footer: %w", err)
	}
	if footer.NumVolumes < 2 {
		return nil, fmt.Errorf("core: %w: %d volumes", xcrypto.ErrBadFooter, footer.NumVolumes)
	}
	cfg.NumVolumes = int(footer.NumVolumes)
	metaBlocks, dataBlocks, _, err := layout(dev)
	if err != nil {
		return nil, err
	}
	sys := &System{
		dev:        dev,
		cfg:        cfg,
		footer:     footer,
		metaBlocks: metaBlocks,
		dataBlocks: dataBlocks,
	}
	if err := sys.buildPool(false); err != nil {
		return nil, err
	}
	// ThinIDs is sorted and distinct, so n ids from 1 to n are exactly 1..n.
	if ids := sys.pool.ThinIDs(); len(ids) != cfg.NumVolumes || ids[0] != 1 || ids[len(ids)-1] != len(ids) {
		return nil, fmt.Errorf("core: %w: %d volumes, but the pool holds %d thins",
			xcrypto.ErrBadFooter, cfg.NumVolumes, len(ids))
	}
	return sys, nil
}

// buildPool constructs (create=true) or loads the thin pool over the
// metadata/data regions.
func (s *System) buildPool(create bool) error {
	metaDev, err := storage.NewSliceDevice(s.dev, 0, s.metaBlocks)
	if err != nil {
		return fmt.Errorf("core: metadata region: %w", err)
	}
	dataDev, err := storage.NewSliceDevice(s.dev, s.metaBlocks, s.dataBlocks)
	if err != nil {
		return fmt.Errorf("core: data region: %w", err)
	}
	// Both regions get an accounting wrap for the telemetry surface. The
	// cost device (virtual-testbed timing) stays outermost, seeing exactly
	// the operations it saw before the stats wrap existed, so `*_virt`
	// metrics are untouched by instrumentation.
	s.metaStats = storage.NewStatsDevice(metaDev)
	s.dataStats = storage.NewStatsDevice(dataDev)
	// The flight recorder sits across the whole stack: ioq records
	// queue/dispatch/complete, thinp records map/provision/commit stages,
	// and the data-region stats wrap records the leaf device op. Created
	// disabled; `mobiceal trace` or FlightRecorder().Enable() turns it on.
	s.flight = obs.NewFlightRecorder(obs.DefaultFlightEvents)
	s.dataStats.SetFlightRecorder(s.flight)
	var meta storage.Device = s.metaStats
	data := vclock.NewCostDevice(s.dataStats, s.cfg.Meter, vclock.Flash)
	src := prng.NewSource(s.cfg.Seed)
	refreshEvery := s.cfg.PolicyRefreshEvery
	if refreshEvery == 0 {
		refreshEvery = 256
	}
	s.policy = NewStoredRandPolicy(PolicyConfig{
		X:            s.cfg.X,
		Lambda:       s.cfg.Lambda,
		NumVolumes:   s.cfg.NumVolumes,
		PublicID:     PublicVolumeID,
		RefreshEvery: refreshEvery,
		Src:          prng.NewSource(src.Uint64()),
	})
	var allocator thinp.Allocator = thinp.NewRandomAllocator(prng.NewSource(src.Uint64()))
	if s.cfg.SequentialAlloc {
		allocator = thinp.NewSequentialAllocator()
	}
	opts := thinp.Options{
		Allocator: allocator,
		Policy:    s.policy,
		Entropy:   s.cfg.Entropy,
		DummySrc:  prng.NewSource(src.Uint64()),
		Flight:    s.flight,
	}
	if create {
		s.pool, err = thinp.CreatePool(data, meta, opts)
	} else {
		s.pool, err = thinp.OpenPool(data, meta, opts)
	}
	if err != nil {
		return fmt.Errorf("core: thin pool: %w", err)
	}
	return nil
}

// Pool exposes the underlying thin pool (read-mostly: experiments and the
// Android layer inspect allocation state through it).
func (s *System) Pool() *thinp.Pool { return s.pool }

// FlightRecorder returns the system's request-lifecycle flight recorder.
// It is created disabled; call Enable on it (or use `mobiceal trace`) to
// start recording. Never nil on a built system.
func (s *System) FlightRecorder() *obs.FlightRecorder { return s.flight }

// Policy returns the dummy-write policy for stats and refresh control.
func (s *System) Policy() *StoredRandPolicy { return s.policy }

// NumVolumes returns n.
func (s *System) NumVolumes() int { return s.cfg.NumVolumes }

// Commit persists pool metadata.
func (s *System) Commit() error { return s.pool.Commit() }

// Health is a snapshot of the system's degradation state: the thin pool's
// health-ladder mode with the reason for the last degradation, and the I/O
// scheduler's fault counters (retries fired, requests recovered by retry,
// hard failures, failed durability barriers).
type Health struct {
	// Mode is the pool health mode: thinp.PoolWrite in normal operation,
	// escalating through OutOfDataSpace and ReadOnly to Fail.
	Mode thinp.PoolMode
	// Reason explains the last degradation; empty while Mode is PoolWrite.
	Reason string
	// IO is the scheduler's metrics snapshot; its Retries, Recovered,
	// Failures and BarrierFails are the cumulative fault accounting.
	IO ioq.MetricsSnapshot
}

// Healthy reports whether the system is fully operational.
func (h Health) Healthy() bool { return h.Mode == thinp.PoolWrite }

// Health reports the system's current degradation state. Callers poll it
// after I/O errors to distinguish a transient hiccup (mode still Write,
// recoveries visible in IO.Recovered) from a degraded pool that needs
// reclaim (OutOfDataSpace), a remount (ReadOnly) or is lost until reopen
// (Fail).
func (s *System) Health() Health {
	mode, reason := s.pool.Status()
	return Health{Mode: mode, Reason: reason, IO: s.Scheduler().MetricsSnapshot()}
}

// Recovery reports the mount-time A/B slot selection the pool performed
// when this System was opened — which metadata slot won, at which
// transaction, and whether an interrupted commit was rolled back. The boot
// flow logs it; tests assert on it.
func (s *System) Recovery() thinp.Recovery { return s.pool.Recovery() }

// view returns volume id's block device as the system stacks it: the thin
// view and, given a cipher, dm-crypt over it. A metered system (Config.Meter)
// wraps each in its charging rule — the thin target's traversals plus the
// dummy bursts its writes set off, then the crypt target's bytes and
// traversals — so every view Setup, the verifier and the volumes use is
// priced the same way. Without a meter the wrappers are not there.
func (s *System) view(id int, cipher xcrypto.SectorCipher) (storage.Device, error) {
	thin, err := s.pool.Thin(id)
	if err != nil {
		return nil, err
	}
	dev := vclock.NewCostDevice(thin, s.cfg.Meter, s.chargeThin)
	if cipher == nil {
		return dev, nil
	}
	return vclock.NewCostDevice(dm.NewCrypt(dev, cipher), s.cfg.Meter, vclock.Crypt), nil
}

// chargeThin is the thin rule plus the dummy noise. A burst runs
// synchronously inside the public provisioning write that fired it, so when
// that write's call returns its blocks are in the pool's DummyBlocksWritten
// count; each is charged as the encryption pass it is (same algorithm,
// discarded key), by whichever call moves noiseCharged past it.
func (s *System) chargeThin(m *vclock.Meter, reqs []storage.Req, bs int) {
	vclock.Thin(m, reqs, bs)
	for n := advance(&s.noiseCharged, s.pool.DummyBlocksWritten()); n > 0; n-- {
		m.ChargeCrypto(bs)
	}
}

// advance moves mark up to n and returns how far it moved — 0 when mark is
// already there. It moves by compare-and-swap only: a caller holding a stale
// n must not set the mark back, or the blocks between would be charged
// twice.
func advance(mark *atomic.Uint64, n uint64) uint64 {
	for {
		seen := mark.Load()
		if n <= seen {
			return 0
		}
		if mark.CompareAndSwap(seen, n) {
			return n - seen
		}
	}
}

// cipherFor builds the XTS sector cipher for a derived key, using the
// Android dm-crypt default parameters (aes-xts-plain64, 256-bit key).
func cipherFor(key []byte) (xcrypto.SectorCipher, error) {
	c, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		return nil, fmt.Errorf("core: building volume cipher: %w", err)
	}
	return c, nil
}

// verifierPlain builds the plaintext verifier block for a password: the
// SHA-256 of the password followed by zeros. Encrypted under the volume
// key it is indistinguishable from dummy noise; decrypted with the right
// key it authenticates the password (paper Sec. V-B "Switching to the
// Hidden Volume").
func verifierPlain(password string, blockSize int) []byte {
	out := make([]byte, blockSize)
	h := sha256.Sum256([]byte(password))
	copy(out, h[:])
	return out
}

// writeVerifier installs the password verifier at virtual block 0 of
// volume id, encrypted under the password-derived key.
func (s *System) writeVerifier(id int, password string) error {
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return fmt.Errorf("core: deriving verifier key: %w", err)
	}
	cipher, err := cipherFor(key)
	if err != nil {
		return err
	}
	crypt, err := s.view(id, cipher)
	if err != nil {
		return err
	}
	if err := crypt.WriteBlock(0, verifierPlain(password, s.dev.BlockSize())); err != nil {
		return fmt.Errorf("core: writing verifier: %w", err)
	}
	return nil
}

// checkVerifier reports whether password opens volume id.
func (s *System) checkVerifier(id int, password string) (bool, error) {
	key, err := s.footer.DeriveKey(password)
	if err != nil {
		return false, err
	}
	cipher, err := cipherFor(key)
	if err != nil {
		return false, err
	}
	mapped, err := s.pool.MappedBlocks(id)
	if err != nil {
		return false, err
	}
	if mapped == 0 {
		return false, nil
	}
	crypt, err := s.view(id, cipher)
	if err != nil {
		return false, err
	}
	buf := make([]byte, s.dev.BlockSize())
	if err := crypt.ReadBlock(0, buf); err != nil {
		return false, fmt.Errorf("core: reading verifier: %w", err)
	}
	want := verifierPlain(password, s.dev.BlockSize())
	for i := 0; i < verifierHashLen; i++ {
		if buf[i] != want[i] {
			return false, nil
		}
	}
	return true, nil
}
